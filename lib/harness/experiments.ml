let all = Figures.entries @ Campaigns.entries @ Ablations.entries
let find id = List.find_opt (fun (e : Experiment.t) -> e.Experiment.id = id) all
