(* Helpers shared by the experiment families (Figures, Ablations,
   Campaigns): cell formatting, telemetry rows, VM configs over the
   workspace's images, and the workspace-plumbed boot entry points. *)
open Imk_kernel
open Imk_monitor
open Experiment

let presets = Config.all_presets
let pname = Config.preset_name
let msf = Boot_runner.ms
let msv f = Printf.sprintf "%.1f" f
let msn ns = msv (Imk_util.Units.ns_float_to_ms ns)

(* the "min"/"max" cells of a boot_many table row, shared by every
   experiment that renders them: the summary's raw float nanoseconds go
   straight through [ns_float_to_ms] — an int_of_float round-trip here
   (an old bug, copy-pasted three times) truncated toward zero and
   re-lost the sub-ns precision the schema-2 telemetry work preserved *)
let min_max_cells (s : Boot_runner.phase_stats) =
  [
    msn s.Boot_runner.total.Imk_util.Stats.min;
    msn s.Boot_runner.total.Imk_util.Stats.max;
  ]
let pct a b = Imk_util.Stats.pct_change b a (* change of a relative to b *)

(* the telemetry row for one boot_many campaign: the raw nanosecond
   summaries, phases that never ran (n = 0) dropped rather than padded
   with fabricated zeros *)
let boot_row label (s : Boot_runner.phase_stats) =
  {
    label;
    total = s.Boot_runner.total;
    phases =
      List.filter
        (fun (_, sum) -> sum.Imk_util.Stats.n > 0)
        [
          ("in-monitor", s.Boot_runner.in_monitor);
          ("bootstrap", s.Boot_runner.bootstrap);
          ("decompression", s.Boot_runner.decompression);
          ("linux-boot", s.Boot_runner.linux_boot);
        ];
  }

(* one phase per label, labels in first-seen order; each item that
   carries a label contributes one sample, its intervals' sum *)
let labelled_phases items =
  let labels =
    List.fold_left
      (List.fold_left (fun acc (l, _) ->
           if List.mem l acc then acc else acc @ [ l ]))
      [] items
  in
  List.map
    (fun label ->
      let sum item =
        match List.filter (fun (l, _) -> l = label) item with
        | [] -> None
        | spans ->
            Some (float_of_int (List.fold_left (fun a (_, d) -> a + d) 0 spans))
      in
      (label, Imk_util.Stats.summarize (List.filter_map sum items)))
    labels

let direct_vm ws preset variant ~rando ?(kallsyms = Vm_config.Kallsyms_eager)
    ?(profile = Profiles.firecracker) ?(mem = 256 * 1024 * 1024) () ~seed =
  let need_relocs = rando <> Vm_config.Rando_off in
  Vm_config.make ~rando ~profile ~mem_bytes:mem ~kallsyms
    ~relocs_path:
      (if need_relocs then Some (Workspace.relocs_path ws preset variant)
       else None)
    ~kernel_path:(Workspace.vmlinux_path ws preset variant)
    ~kernel_config:(Workspace.config ws preset variant)
    ~seed ()

let bz_vm ws preset variant ~codec ~bz ~rando ?(profile = Profiles.firecracker)
    ?(mem = 256 * 1024 * 1024) () ~seed =
  let path = Workspace.bzimage_path ws preset variant ~codec ~bz in
  Vm_config.make ~flavor:Vm_config.In_monitor_fgkaslr ~rando ~profile
    ~mem_bytes:mem ~loader:Vm_config.Loader_stripped
    ~kernel_path:path
    ~kernel_config:(Workspace.config ws preset variant)
    ~seed ()

(* every measured boot of an experiment goes through the workspace's
   arena, plan cache and page cache *)
let boot_many ?cold ws ~runs make_vm =
  Boot_runner.boot_many ?cold ~arena:(Workspace.arena ws) ~runs
    ?plans:(Workspace.plans ws) ~cache:(Workspace.cache ws) ~make_vm ()

let boot_once ws ~seed vm =
  Boot_runner.boot_once ~jitter:false ~seed ?plans:(Workspace.plans ws)
    ~cache:(Workspace.cache ws) vm

(* the one read of the ambient --jobs: every fan-out of experiment
   cells or campaign runs goes through here *)
let fan_out ~tasks f =
  Imk_util.Par.map_tasks ~jobs:(max 1 !Boot_runner.default_jobs) ~tasks f

(* ---------- Supervised-campaign kit ---------- *)

type cell = {
  path : string;
  files : (string * bytes) list;
  kernel : string;
  relocs : string option;
  make_vm : seed:int64 -> Vm_config.t;
}

(* campaign guests are small: supervision, not guest size, is measured *)
let campaign_mem = 64 * 1024 * 1024

let file ws name = (name, Imk_storage.Disk.find (Workspace.disk ws) name)

(* a cell's images are built here, on the calling domain: the
   workspace's build tables are not thread-safe, and once built the
   make_vm lookups on worker domains only read them *)
let direct_cell ws preset =
  let kernel = Workspace.vmlinux_path ws preset Config.Kaslr in
  let relocs = Workspace.relocs_path ws preset Config.Kaslr in
  {
    path = "direct/kaslr";
    files = [ file ws kernel; file ws relocs ];
    kernel;
    relocs = Some relocs;
    make_vm =
      direct_vm ws preset Config.Kaslr ~rando:Vm_config.Rando_kaslr
        ~mem:campaign_mem ();
  }

let bz_cell ws preset =
  let codec = "lz4" and bz = Imk_kernel.Bzimage.Standard in
  let kernel = Workspace.bzimage_path ws preset Config.Kaslr ~codec ~bz in
  {
    path = "bz/lz4/kaslr";
    files = [ file ws kernel ];
    kernel;
    relocs = None;
    make_vm =
      bz_vm ws preset Config.Kaslr ~codec ~bz ~rando:Vm_config.Rando_kaslr
        ~mem:campaign_mem ();
  }

(* run-private state: a fresh disk seeded with the cell's pristine files
   and [extra], the fault (if any) armed against that disk alone, then a
   fresh page cache over it, optionally warm. The plan cache is shared
   on purpose: plans are content-addressed, so a corrupted image never
   resolves to a pristine image's plan. *)
let run_ctx ?(warm = false) ?fault ?(extra = []) ws cell =
  let disk = Imk_storage.Disk.create () in
  let files = cell.files @ extra in
  List.iter (fun (name, b) -> Imk_storage.Disk.add disk ~name b) files;
  let inject =
    match fault with
    | None -> None
    | Some (kind, seed) ->
        (Imk_fault.Inject.arm kind ~seed ~disk ~kernel_path:cell.kernel
           ?relocs_path:cell.relocs ())
          .Imk_fault.Inject.inject
  in
  let cache = Imk_storage.Page_cache.create disk in
  if warm then
    List.iter (fun (name, _) -> Imk_storage.Page_cache.warm cache name) files;
  { Boot_supervisor.cache; inject; plans = Workspace.plans ws }

let snapshot_blob ws cell =
  let trace = Imk_vclock.Trace.create (Imk_vclock.Clock.create ()) in
  let ch = Imk_vclock.Charge.create trace Imk_vclock.Cost_model.default in
  let base =
    Vmm.boot ?plans:(Workspace.plans ws) ch (Workspace.cache ws)
      (cell.make_vm ~seed:404L)
  in
  Snapshot.serialize (Snapshot.capture base)

let total_exn what (r : Boot_supervisor.report) =
  match r.Boot_supervisor.outcome with
  | Ok _ -> r.Boot_supervisor.total_ns
  | Error f -> invalid_arg (what ^ ": " ^ Imk_fault.Failure.describe f)

type tally = {
  armed : int;
  ok : int;
  recovered : int;
  silent : int;
  failed : int;
  retries : int;
  kinds : string list;
}

let tally reports =
  let module F = Imk_fault.Failure in
  let count p =
    Array.fold_left (fun n x -> if p x then n + 1 else n) 0 reports
  in
  let events ((r : Boot_supervisor.report), _) = r.Boot_supervisor.events in
  let green ((r : Boot_supervisor.report), _) =
    Result.is_ok r.Boot_supervisor.outcome
  in
  {
    armed = count snd;
    ok = count green;
    recovered = count (fun x -> green x && events x <> []);
    silent = count (fun x -> snd x && green x && events x = []);
    failed = count (fun x -> not (green x));
    retries =
      Array.fold_left
        (fun n x ->
          List.fold_left
            (fun n e -> match e with F.Retried _ -> n + 1 | _ -> n)
            n (events x))
        0 reports;
    kinds =
      Array.fold_left
        (fun acc ((r : Boot_supervisor.report), _) ->
          match r.Boot_supervisor.outcome with
          | Error f when not (List.mem (F.kind_name f) acc) ->
              acc @ [ F.kind_name f ]
          | _ -> acc)
        [] reports;
  }
