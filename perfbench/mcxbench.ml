(* mcxbench: the repository's benchmark.

     mcxbench --workload table2_mc|serve_mix|synth_wide|all
              --seed N --seconds S --trace 0|1
              [--emit-stream FILE --requests N]

   One workload runs in one process. The last line of standard output
   is the result: {"correct","attempted","failed","metrics"}; with
   --trace 0 the metrics are the end-to-end ones, with --trace 1 the
   per-layer ones of a separate traced replay, whose Chrome trace is
   written to _build/perfbench/. The exit code is 1 when any
   correctness check failed, 2 on a usage or environment error. *)

open Common

type workload = {
  name : string;
  jobs : unit -> int;  (** pool size, for the stamp *)
  setup : params -> unit;
  untraced : params -> outcome;  (** every end-to-end metric but setup_s *)
  traced : params -> outcome * Spans.span list;
}

let workloads =
  [
    {
      name = Table2_mc.name;
      jobs = (fun () -> table2_jobs);
      setup = (fun p -> Mcx_util.Pool.shutdown (Table2_mc.setup p));
      untraced = Table2_mc.untraced;
      traced = Table2_mc.traced;
    };
    {
      name = Serve_mix.name;
      jobs = (fun () -> serve_jobs);
      setup = (fun p -> Mcx_util.Pool.shutdown (fst (Serve_mix.setup p)));
      untraced = Serve_mix.untraced;
      traced = Serve_mix.traced;
    };
    {
      name = Synth_wide.name;
      jobs = (fun () -> 1);
      setup = Synth_wide.setup;
      untraced = Synth_wide.untraced;
      traced = Synth_wide.traced;
    };
  ]

let die fmt = Printf.ksprintf (fun msg -> prerr_endline ("mcxbench: " ^ msg); exit 2) fmt

(* A journal would replay trials instead of running them, and fault
   injection or library tracing would perturb the timings. *)
let refused_knobs = [ "MCX_CHECKPOINT"; "MCX_FAULT_RATE"; "MCX_TRACE" ]

let check_environment () =
  match Mcx_util.Config.knobs () with
  | exception Mcx_util.Config.Invalid { knob; value; expected } ->
    die "%s=%S is malformed (expected %s)" knob value expected
  | knobs ->
    List.iter
      (fun (k : Mcx_util.Config.info) ->
        if List.mem k.name refused_knobs && k.prov <> Mcx_util.Config.Default then
          die "refusing to run with %s set; unset it first" k.name)
      knobs

(* Set-up time: the median over several fresh processes of the wall
   time from spawn to exit of a set-up-only run (process start, pool,
   cover builds, server creation; no input generation). Fresh processes
   are needed because the benchmark covers are memoized per process.
   Cheap set-ups are repeated more: at least [setup_min] times, and on
   until [setup_budget] seconds are spent or [setup_max] runs made, so
   a set-up of a few milliseconds is the median of many spawns. *)
let setup_min = 7
let setup_max = 41
let setup_budget = 0.5

let measure_setup ~workload p =
  let args =
    [| Sys.executable_name; "--setup-only"; "--workload"; workload; "--seed"; string_of_int p.seed |]
  in
  let once () =
    let t0 = now () in
    let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stderr Unix.stderr in
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> now () -. t0
    | _ -> die "set-up run of %s failed" workload
  in
  let t_start = now () in
  let rec collect acc k =
    if k >= setup_max || (k >= setup_min && now () -. t_start >= setup_budget) then acc
    else collect (once () :: acc) (k + 1)
  in
  let samples = collect [] 0 in
  (percentile (sorted_samples samples) 0.5, List.length samples)

let write_trace ~workload ~jobs p outcome_spans =
  let dir = Filename.concat "_build" "perfbench" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (Printf.sprintf "trace-%s-%d.json" workload p.seed) in
  Mcx_util.Json_out.write_file path
    (Spans.chrome_trace ~other:(stamp ~workload ~jobs p) outcome_spans);
  path

let run_one w p =
  let outcome =
    if p.trace then begin
      let outcome, spans = w.traced p in
      let path = write_trace ~workload:w.name ~jobs:(w.jobs ()) p spans in
      { outcome with report = ("trace", path) :: outcome.report }
    end
    else begin
      let setup_s, setups = measure_setup ~workload:w.name p in
      let outcome = w.untraced p in
      {
        outcome with
        metrics = metric "setup_s" "s" setup_s :: outcome.metrics;
        report =
          ("setup_s", Printf.sprintf "%.4f s (median of %d cold set-ups)" setup_s setups)
          :: outcome.report;
      }
    end
  in
  let share = float_of_int outcome.failed /. float_of_int (max 1 outcome.attempted) in
  Printf.eprintf "== %s seed=%d trace=%b\n" w.name p.seed p.trace;
  List.iter
    (fun (k, v) -> Printf.eprintf "  %-44s %s\n" k v)
    (outcome.report
    @ [
        ( "failed_share",
          Printf.sprintf "%.4f (failed %d of %d attempted)" share outcome.failed outcome.attempted );
      ]);
  print_endline (Mcx_util.Json_out.to_string (stamp ~workload:w.name ~jobs:(w.jobs ()) p));
  print_endline (result_line outcome);
  exit (if outcome.correct then 0 else 1)

(* --workload all: each workload in its own process, one after another. *)
let run_all argv =
  let codes =
    List.map
      (fun w ->
        let args =
          Array.map (fun a -> if a = "all" then w.name else a) argv
        in
        let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout Unix.stderr in
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED code -> code
        | _ -> 2)
      workloads
  in
  exit (List.fold_left max 0 codes)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 25. and trace = ref 0 in
  let setup_only = ref false and emit = ref "" and requests = ref 2000 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME table2_mc, serve_mix, synth_wide or all");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 1 runs the traced replay");
      ("--setup-only", Arg.Set setup_only, " run the workload's set-up and exit");
      ("--emit-stream", Arg.Set_string emit, "FILE write the serve_mix request stream as JSONL");
      ("--requests", Arg.Set_int requests, "N requests for --emit-stream (default 2000)");
    ]
  in
  Arg.parse spec (fun a -> die "unexpected argument %S" a) "mcxbench [options]";
  check_environment ();
  if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
  if !seconds <= 0. then die "--seconds must be positive";
  let p = { seed = !seed; seconds = !seconds; trace = !trace = 1 } in
  if !workload = "all" then run_all Sys.argv
  else
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | None ->
      die "unknown workload %S (known: %s, all)" !workload
        (String.concat ", " (List.map (fun w -> w.name) workloads))
    | Some w ->
      if !setup_only then w.setup p
      else if !emit <> "" then begin
        if w.name <> Serve_mix.name then die "--emit-stream needs --workload %s" Serve_mix.name;
        Serve_mix.emit ~seed:p.seed ~requests:!requests !emit
      end
      else run_one w p
