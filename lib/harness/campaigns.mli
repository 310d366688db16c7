val entries : Experiment.t list
