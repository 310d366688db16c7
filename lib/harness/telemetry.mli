(** Wall-clock bench telemetry, schema 2.

    The virtual clock measures the {e simulated} boots; this module
    records what they measured — full distributions, not bare means —
    so harness perf work has before/after numbers and a regression
    gate. [bench/main.exe] writes one [BENCH_<exp>.json] per
    experiment:

    {v
    { "schema": 2,
      "experiment": "fig9",
      "runs": 20, "jobs": 1, "scale": 16, "functions": null,
      "wall_clock_s": 19.1,
      "boot_ms": [
        { "label": "aws/kaslr/lz4",
          "mean_ms": 85.4,
          "total":  { "n": 20, "mean_ms": 85.4, "min_ms": ..., "max_ms": ...,
                      "stddev_ms": ..., "p50_ms": ..., "p90_ms": ..., "p99_ms": ... },
          "phases": [
            { "phase": "in-monitor", "n": 20, "mean_ms": ..., ... },
            { "phase": "bootstrap", ... },
            { "phase": "decompression", ... },
            { "phase": "linux-boot", ... } ] } ] }
    v}

    Rows come straight from {!Experiment.output.telemetry} as raw
    floats — never re-parsed out of the rendered table (lint.sh bans
    [float_of_string] in [lib/harness/] to keep that bug class dead).
    All summaries are milliseconds; the per-row phase means sum to the
    headline [total] mean (up to runs in which a phase did not fire).
    Phases a boot path never enters are absent, not zero-filled.
    [functions] is [null] unless [--functions] shrank the kernels.
    Written by hand and read back with {!Imk_util.Minjson} — no JSON
    dependency. *)

val schema_version : int
(** 2. Schema 1 carried only a [mean_ms] per label; {!of_json} refuses
    it loudly rather than silently reading means as distributions. *)

type row = {
  label : string;
  total : Imk_util.Stats.summary;  (** milliseconds *)
  phases : (string * Imk_util.Stats.summary) list;  (** milliseconds *)
}

type file = {
  schema : int;
  experiment : string;
  runs : int;
  jobs : int;
  scale : int;
  functions : int option;
  wall_clock_s : float;
  rows : row list;
}

val rows : Experiment.output -> row list
(** [rows o] converts the experiment's raw nanosecond telemetry to
    millisecond rows. Raises [Invalid_argument] on duplicate labels —
    two rows with the same label would silently shadow each other. *)

val value_column : string list -> int option
(** Index of a rendered table's headline millisecond column: exactly
    ["total ms"], else ["boot ms"]/["create ms"], else the first header
    that is ["ms"] or ends in the token [" ms"]. A header merely
    {e ending} in ["ms"] (["atoms"], ["programs"]) does not match — an
    old fallback did, and read arbitrary columns as milliseconds. Used
    as a sanity check only (bench warns when a table has a millisecond
    column but the experiment provided no telemetry rows); values are
    never parsed out of cells. *)

val to_json :
  experiment:string ->
  runs:int ->
  jobs:int ->
  scale:int ->
  functions:int option ->
  wall_clock_s:float ->
  row list ->
  string
(** Render a schema-2 file. Raises [Invalid_argument] on duplicate
    labels. *)

val of_json : string -> file
(** Parse a [BENCH_<exp>.json] written by {!to_json}. Raises
    [Invalid_argument] on any schema other than {!schema_version} and
    {!Imk_util.Minjson.Malformed} on malformed input — a baseline that
    cannot be read faithfully must fail the gate, not pass it. *)

type delta = {
  d_label : string;
  d_phase : string option;  (** [None] = the headline total *)
  baseline_p50 : float;
  current_p50 : float;
  change_pct : float;  (** p50 change relative to baseline, percent *)
  degenerate : bool;
      (** either side has [n < 2]: the quantiles alias the single
          sample, so the delta is reported but can never be a
          [regression] *)
  regression : bool;
}

val default_threshold_pct : float
(** 5.0 — the default p50 regression threshold. *)

val diff :
  ?threshold_pct:float -> baseline:file -> current:file -> unit -> delta list
(** Per-label/per-phase p50 deltas for every label present in both
    files. Only headline-total deltas beyond [threshold_pct] are marked
    [regression]; per-phase rows are diagnostic, and [degenerate]
    deltas (either side a single sample) never trip the gate — one
    draw is not a distribution. Labels present in only one file
    produce no delta — report them via {!missing_labels}. *)

val regressions : delta list -> delta list
(** The deltas that trip the gate. *)

val missing_labels :
  baseline:file -> current:file -> string list * string list
(** [(only_in_baseline, only_in_current)] — label drift the p50 gate
    cannot see (a vanished row is not a regression, but it is news). *)

val write_file : string -> string -> unit
(** [write_file path contents] (re)writes [path] atomically enough for a
    bench artifact: open, write, close. *)

val read_file : string -> string
(** Read a whole file (for [--baseline]). *)
