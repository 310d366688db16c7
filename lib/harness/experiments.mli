(** The experiment registry: every table, figure, ablation and campaign,
    each an {!Experiment.t}. The ids live only in the entries. *)

val all : Experiment.t list
(** Every experiment, in paper order: the figures ({!Figures}), the
    gated campaigns ({!Campaigns}), then the ablations ({!Ablations}). *)

val find : string -> Experiment.t option
(** Look an experiment up by its id (for the CLI). *)
