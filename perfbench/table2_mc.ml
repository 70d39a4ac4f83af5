(* table2_mc: the paper's headline experiment. Experiments.Table2.run
   over all 16 Table II circuits at 10% stuck-open, one batch job per
   circuit on the domain pool. Exact mapping does nearly all the work;
   there is no parsing, cache or synthesis in the timed region. *)

open Mcx_util
open Common
module Suite = Mcx_benchmarks.Suite
module Table2 = Mcx_experiments.Table2
module Cost = Mcx_crossbar.Cost
module Function_matrix = Mcx_crossbar.Function_matrix
module Defect_map = Mcx_crossbar.Defect_map
module Matching = Mcx_mapping.Matching

let name = "table2_mc"

(* Trials per circuit in one round: a round of all 16 circuits takes
   about five seconds, so a run holds several whole rounds. *)
let samples = 4
let defect_rate = 0.10

let setup ?(rec_ = Spans.off) (_ : params) =
  let pool = Pool.create ~jobs:table2_jobs () in
  List.iter
    (fun b ->
      ignore (Spans.with_span rec_ "benchmarks.suite.cover" (fun () -> Suite.cover b));
      ignore (Spans.with_span rec_ "benchmarks.suite.negated_cover" (fun () -> Suite.negated_cover b)))
    Suite.table2;
  pool

(* The cover Table2 implements: the cheaper of the function and its
   negation (dual optimization, paper §IV.B). *)
let implementation_fm b =
  let direct = Suite.cover b and dual = Suite.negated_cover b in
  let area c = (Cost.two_level c).Cost.area in
  let cover = if area dual < area direct then dual else direct in
  let report = Cost.two_level cover in
  (Function_matrix.build cover, report.Cost.rows, report.Cost.cols)

(* The key Table2.run derives trial [i]'s defect map from. *)
let trial_key ~seed b =
  Prng.Key.(float (string (string (root seed) "table2") b.Suite.name) defect_rate)

type trial = { hba_hit : bool; ea_hit : bool; ok : bool }

(* One trial through the public stage functions, checked afterwards
   (outside the spans). *)
let replay_trial rec_ (fm, rows, cols) key i =
  let cm, hba, ea =
    Spans.with_span rec_ "trial" (fun () ->
        let defects =
          Spans.with_span rec_ "crossbar.defect_map.random" (fun () ->
              Defect_map.random (Prng.derive key i) ~rows ~cols ~open_rate:defect_rate
                ~closed_rate:0.)
        in
        let cm =
          Spans.with_span rec_ "mapping.matching.cm_of_defects" (fun () ->
              Matching.cm_of_defects defects)
        in
        let hba = Spans.with_span rec_ "mapping.hybrid.map" (fun () -> Mcx_mapping.Hybrid.map fm cm) in
        let ea = Spans.with_span rec_ "mapping.exact.map" (fun () -> Mcx_mapping.Exact.map fm cm) in
        (cm, hba, ea))
  in
  let p = Check.problem ~fm:fm.Function_matrix.matrix ~cm in
  let valid = function None -> true | Some a -> Check.assignment_valid p a in
  let feasible = Check.feasible p in
  let hba_hit = Option.is_some hba and ea_hit = Option.is_some ea in
  { hba_hit; ea_hit; ok = valid hba && valid ea && ea_hit = feasible && ((not hba_hit) || ea_hit) }

let pct hits = 100. *. float_of_int hits /. float_of_int samples
let count f trials = Array.fold_left (fun acc t -> if f t then acc + 1 else acc) 0 trials

(* Whole-row checks on Table2's own aggregate, against the replay. *)
let row_ok (row : Table2.row) trials =
  row.Table2.hba_all_valid && row.Table2.ea_all_valid
  && row.Table2.hba_psucc <= row.Table2.ea_psucc
  && Float.equal row.Table2.hba_psucc (pct (count (fun t -> t.hba_hit) trials))
  && Float.equal row.Table2.ea_psucc (pct (count (fun t -> t.ea_hit) trials))

let failures trials = count (fun t -> not t.ok) trials

let untraced (p : params) =
  let pool = setup p in
  let t_start = now () in
  let rounds = ref [] in
  while now () -. t_start < p.seconds do
    let seed = round_seed ~seed:p.seed ~workload:name (List.length !rounds) in
    let rows =
      List.map
        (fun b ->
          let t0 = now () in
          let row =
            match Table2.run ~pool ~samples ~defect_rate ~benchmarks:[ b.Suite.name ] ~seed () with
            | [ row ] -> row
            | _ -> failwith "Table2.run: expected one row"
          in
          (b, row, now () -. t0))
        Suite.table2
    in
    rounds := (seed, rows) :: !rounds
  done;
  let rounds = List.rev !rounds in
  let rss = peak_rss_mb () in
  Pool.shutdown pool;
  (* Outside the timed region: replay every trial and check it, on as
     many domains as there are cores. *)
  let pool = Pool.create ~jobs:(nproc ()) () in
  let failed =
    List.fold_left
      (fun acc (seed, rows) ->
        List.fold_left
          (fun acc (b, row, _) ->
            let fm = implementation_fm b and key = trial_key ~seed b in
            let trials =
              Pool.map pool samples (fun i ->
                  replay_trial Spans.off fm key i)
            in
            acc + failures trials + if row_ok row trials then 0 else 1)
          acc rows)
      0 rounds
  in
  Pool.shutdown pool;
  (* A round is one whole Table II: the latency of the batch job. *)
  let round_times =
    List.map (fun (_, rows) -> List.fold_left (fun acc (_, _, t) -> acc +. t) 0. rows) rounds
  in
  let trials = samples * List.length Suite.table2 * List.length rounds in
  let hba_psucc =
    match rounds with
    | (_, rows) :: _ ->
      List.fold_left (fun acc (_, r, _) -> acc +. r.Table2.hba_psucc) 0. rows
      /. float_of_int (List.length rows)
    | [] -> 0.
  in
  {
    attempted = trials;
    failed;
    correct = failed = 0;
    metrics = end_to_end ~rss ~items:trials round_times;
    report =
      [
        ( "trials_per_s",
          Printf.sprintf "%.3f trials/s (%d trials, %d rounds)"
            (float_of_int trials /. List.fold_left ( +. ) 0. round_times)
            trials (List.length rounds) );
        ( "hba_psucc_pct",
          Printf.sprintf "%.4f %% (round 0, mean over %d circuits)" hba_psucc
            (List.length Suite.table2) );
        ("round latency", latency_report ~units:"Table II rounds" round_times);
      ];
  }

(* The traced run replays each round's trials twice through the stage
   functions, once with spans off and once on: the wall-time difference
   is the tracing overhead. *)
let traced (p : params) =
  let setup_rec = Spans.recorder ~enabled:true ~unit_id:(-1) in
  let pool = setup ~rec_:setup_rec p in
  let circuits = List.map (fun b -> (b, implementation_fm b)) Suite.table2 in
  let t_start = now () in
  let plain_wall = ref 0. and traced_wall = ref 0. and task_busy = ref 0. in
  let unit_spans = ref [] and trials_all = ref [] and failed = ref 0 and round = ref 0 in
  let psucc_round0 = ref 0. in
  while now () -. t_start < p.seconds do
    let seed = round_seed ~seed:p.seed ~workload:name !round in
    List.iteri
      (fun ci (b, fm) ->
        let key = trial_key ~seed b in
        let unit_id i = (((!round * 100) + ci) * 1000) + i in
        let plain () =
          let t0 = now () in
          let busy =
            Pool.map pool samples (fun i ->
                let t = now () in
                ignore (replay_trial Spans.off fm key i);
                now () -. t)
          in
          plain_wall := !plain_wall +. (now () -. t0);
          task_busy := !task_busy +. Array.fold_left ( +. ) 0. busy
        in
        let traced () =
          let t0 = now () in
          let traced =
            Pool.map pool samples (fun i ->
                let r = Spans.recorder ~enabled:true ~unit_id:(unit_id i) in
                let trial = replay_trial r fm key i in
                (trial, Spans.spans r))
          in
          traced_wall := !traced_wall +. (now () -. t0);
          traced
        in
        let (), traced = Spans.both ~untraced_first:(ci mod 2 = 0) plain traced in
        let trials = Array.map fst traced in
        Array.iter (fun (_, s) -> unit_spans := List.rev_append s !unit_spans) traced;
        trials_all := trials :: !trials_all;
        failed := !failed + failures trials;
        if !round = 0 then psucc_round0 := !psucc_round0 +. pct (count (fun t -> t.hba_hit) trials))
      circuits;
    incr round
  done;
  Pool.shutdown pool;
  let trials = Array.concat !trials_all in
  let n = Array.length trials in
  let share hits = float_of_int hits /. float_of_int (max 1 n) in
  let summary =
    Layers.summarize ~unit_spans:(List.rev !unit_spans) ~other_spans:(Spans.spans setup_rec)
      ~extras:
        [
          ("mapping.exact.success_share", share (count (fun t -> t.ea_hit) trials));
          ("mapping.hybrid.success_share", share (count (fun t -> t.hba_hit) trials));
          ("util.pool.busy_share", !task_busy /. (float_of_int table2_jobs *. !plain_wall));
          ("table2.hba_psucc_pct", !psucc_round0 /. float_of_int (List.length circuits));
          ("trace.overhead_ms", 1e3 *. (!traced_wall -. !plain_wall));
          ("trace.overhead_share", (!traced_wall -. !plain_wall) /. !plain_wall);
        ]
  in
  ( { attempted = n; failed = !failed; correct = !failed = 0; metrics = summary.Layers.metrics; report = summary.Layers.report },
    List.rev !unit_spans @ Spans.spans setup_rec )
