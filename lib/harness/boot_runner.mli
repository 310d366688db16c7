(** Repeated-boot measurement, following the paper's methodology (§5.1):
    warm the cache with five boots, then measure N boots, reporting the
    average with min/max. Cold-cache runs drop the caches before every
    measured boot instead. *)

type phase_stats = {
  in_monitor : Imk_util.Stats.summary;
  bootstrap : Imk_util.Stats.summary;
  decompression : Imk_util.Stats.summary;
  linux_boot : Imk_util.Stats.summary;
  total : Imk_util.Stats.summary;
}

val ms : Imk_util.Stats.summary -> float
(** Mean in milliseconds (summaries are collected in ns). Computed on the
    float mean directly — an earlier version truncated to whole ns first,
    biasing sub-ms phases downward. *)

val default_jobs : int ref
(** Ambient [--jobs], set once by bench: how many worker domains
    [Exp_common.fan_out] spreads independent experiment cells and
    campaign runs over. A boot series ({!boot_many}) never fans out.
    Default 1. *)

val trace_sink : (Imk_vclock.Trace.t -> unit) option ref
(** Ambient trace tap: when set, every completed boot's full span trace
    is offered to the sink — {!boot_once} (and therefore every
    [boot_many] repetition) and each [Boot_supervisor] report feed it.
    This is how [bench/main.exe --trace] captures a representative boot
    of any experiment without threading a parameter through every
    driver. The sink runs on whatever domain booted (a fanned-out cell
    runs on a worker), so it must synchronize internally and must not
    raise.
    Purely observational: installing a sink never changes virtual-clock
    results. Default [None]. *)

val emit_trace : Imk_vclock.Trace.t -> unit
(** Offer a finished trace to {!trace_sink} (no-op when unset). Called
    by the boot paths above; exposed for other harness entry points
    (e.g. the supervisor) rather than for general use. *)

val boot_many :
  ?warmups:int ->
  ?cold:bool ->
  ?arena:Imk_memory.Arena.t ->
  ?plans:Imk_monitor.Plan_cache.t ->
  runs:int ->
  cache:Imk_storage.Page_cache.t ->
  make_vm:(seed:int64 -> Imk_monitor.Vm_config.t) ->
  unit ->
  phase_stats
(** [boot_many ~runs ~cache ~make_vm ()] performs [warmups] (default 5)
    unrecorded boots, then [runs] recorded ones, each with a fresh seed
    and jittered costs. [cold] (default false) drops the page cache
    before every boot, including warmups (which then serve only to
    surface errors early). Raises whatever the boot raises — a failing
    configuration should fail the experiment.

    The series runs in order on the calling domain, against the one
    shared cache the warm-ups primed; every seed is a pure function of
    the boot's index. Parallelism belongs between independent series
    (each on its own workspace), never inside one.

    [arena] recycles guest memory across the boots (each boot's memory is
    released back as soon as its trace is recorded). Phases that never
    ran report [Imk_util.Stats.empty] (n = 0) rather than a fabricated
    zero sample.

    [plans] shares a boot-plan cache across all the boots. Results are
    bit-identical with or without it; only host wall clock changes. *)

val contend_capacities : (int * int) ref
(** Ambient [(disk_capacity, decompress_slots)] for {!boot_contended}
    callers that follow the bench [--contend D,S] flag — like
    {!default_jobs}, set once by the CLI instead of threaded through
    every experiment. Default [(1, 1)]: one disk-bandwidth unit and one
    decompress slot, full contention. *)

type contended_stats = {
  per_boot : phase_stats;
      (** every boot of every run, aggregated in (run, slot) order —
          spans include queue waits, so contention shows up here *)
  makespan : Imk_util.Stats.summary;
      (** per-run shared-timeline span (last event's virtual time) *)
}

val boot_contended :
  ?warmups:int ->
  ?plans:Imk_monitor.Plan_cache.t ->
  n:int ->
  runs:int ->
  cache:Imk_storage.Page_cache.t ->
  make_vm:(seed:int64 -> Imk_monitor.Vm_config.t) ->
  unit ->
  contended_stats
(** [boot_contended ~n ~runs ~cache ~make_vm ()] boots [n] guests
    concurrently on one shared {!Imk_vclock.Sched} timeline per run,
    with disk-read bandwidth and decompress slots capped at
    [!contend_capacities] — queue waits stretch each boot's charged
    spans (DESIGN.md §10). [warmups] (default 5) sequential boots prime
    the shared cache first; each run then gets a private
    [Page_cache.clone], a fresh scheduler and [contend_seed]-pure seeds,
    so the returned stats are bit-identical for any ambient [--jobs].
    Runs execute one at a time on the calling domain: each run holds [n]
    live guests, so peak memory is one run's worth. *)

val run_seed : int -> int64
(** Seed of recorded run [i] (1-based). The supervised campaigns seed
    their runs with it too, so supervised and plain campaigns agree on
    per-run seeds. *)

val contend_seed : run:int -> slot:int -> int64
(** Seed of guest [slot] (0-based) in contended run [run] (1-based) — a
    pure function of both, the contended leg of the jobs-invariance
    contract. *)

val boot_once :
  ?jitter:bool ->
  ?mem:Imk_memory.Guest_mem.t ->
  ?plans:Imk_monitor.Plan_cache.t ->
  seed:int64 ->
  cache:Imk_storage.Page_cache.t ->
  Imk_monitor.Vm_config.t ->
  Imk_vclock.Trace.t * Imk_monitor.Vmm.boot_result
(** One instrumented boot, returning the full trace (for span-level
    analyses like Figure 5) and the result (for layout-dependent
    analyses like LEBench and the attack simulation). With [mem] (a
    caller-owned buffer, typically inside an
    [Imk_memory.Arena.with_buffer] bracket) the boot runs in place and
    the caller keeps ownership either way. *)

val spans_by_label : Imk_vclock.Trace.t -> (string * int) list
(** Aggregate span durations by label, for breakdowns finer than the
    four phases. *)
