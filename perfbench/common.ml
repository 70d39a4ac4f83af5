(* Shared plumbing: run parameters, percentile estimates, the result line
   and the provenance stamp every result carries. *)

module Json = Mcx_util.Json_out
module Timing = Mcx_util.Timing

type params = { seed : int; seconds : float; trace : bool }

(* Every size the workloads depend on is fixed in the benchmark, not
   read from the MCX_* environment, so two runs differ only in seed and
   code. Both pools have one domain. On a two-core virtual machine, a
   two-domain Monte Carlo batch measured 16 to 34 trials/s on identical
   runs, one domain 11.5 to 12.3; five seeds of serve_mix spread by
   0.17 (interquartile range over median) in requests/s on two domains,
   0.08 on one. *)
let serve_jobs = 1
let table2_jobs = 1
let cache_capacity = 512

let nproc () = Domain.recommended_domain_count ()

let now () = Timing.now_seconds ()

(* Nearest-rank percentile of raw samples sorted ascending: always one
   of the samples, so it lies within [min, max]. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(* Harrell-Davis estimate of quantile [p] from samples sorted
   ascending: a weighted mean of every sample, so within [min, max],
   sample [i] (1-based) weighted by the Beta(p(n+1), (1-p)(n+1)) mass
   on [(i-1)/n, i/n].
   Where the samples are few and unevenly spaced (60 per-function
   medians with a gap at the middle), the nearest-rank quantile jumps
   across the gap when one sample moves past another; this estimate
   moves with the samples instead. The Beta masses are integrated by
   the midpoint rule in log space and normalized, so no gamma function
   is needed and the endpoint singularities of small shapes are never
   evaluated. *)
let harrell_davis sorted p =
  let n = Array.length sorted in
  if n <= 1 then percentile sorted p
  else
    let a = p *. float_of_int (n + 1) and b = (1. -. p) *. float_of_int (n + 1) in
    let steps = 64 in
    let h = 1. /. float_of_int (n * steps) in
    let log_density x = ((a -. 1.) *. Float.log x) +. ((b -. 1.) *. Float.log (1. -. x)) in
    let peak = ref neg_infinity in
    for k = 0 to (n * steps) - 1 do
      peak := Float.max !peak (log_density ((float_of_int k +. 0.5) *. h))
    done;
    let weights =
      Array.init n (fun i ->
          let w = ref 0. in
          for k = i * steps to ((i + 1) * steps) - 1 do
            w := !w +. Float.exp (log_density ((float_of_int k +. 0.5) *. h) -. !peak)
          done;
          !w)
    in
    let total = Array.fold_left ( +. ) 0. weights in
    let sum = ref 0. in
    Array.iteri (fun i w -> sum := !sum +. (w *. sorted.(i))) weights;
    !sum /. total

let sorted_samples l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

(* Peak resident set size of this process (VmHWM), in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kib ->
          float_of_int kib /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* The git commit of the checkout, read from .git when there is one. *)
let git_commit () =
  let read path =
    match open_in path with
    | ic -> Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Some (String.trim (input_line ic)))
    | exception Sys_error _ -> None
  in
  match read ".git/HEAD" with
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " ->
    let ref_name = String.sub head 5 (String.length head - 5) in
    Option.value (read (Filename.concat ".git" ref_name)) ~default:("unresolved " ^ ref_name)
  | Some hash -> hash
  | None -> "unknown (not a git checkout)"

let stamp ~workload ~jobs p =
  Json.Obj
    [
      ("schema", Json.Str "mcx-perfbench-stamp/1");
      ("workload", Json.Str workload);
      ("seed", Json.Int p.seed);
      ("seconds", Json.Float p.seconds);
      ("trace", Json.Bool p.trace);
      ("nproc", Json.Int (nproc ()));
      ("pool_jobs", Json.Int jobs);
      ("cache_capacity", Json.Int cache_capacity);
      ("config_digest", Json.Str (Mcx_util.Config.digest ()));
      ("git_commit", Json.Str (git_commit ()));
    ]

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* The end-to-end metrics a run measures after set-up: [times] are the
   durations in seconds of the timed units (rounds, batches, functions),
   which together completed [items] trials, requests or functions.
   The percentiles are taken over [latencies] when given, else over
   [times]. *)
let end_to_end ?latencies ~rss ~items times =
  let busy = List.fold_left ( +. ) 0. times in
  let sorted = sorted_samples (Option.value latencies ~default:times) in
  [
    metric "peak_rss_mb" "MiB" rss;
    metric "throughput_per_s" "1/s" (float_of_int items /. busy);
    metric "latency_p50_ms" "ms" (1e3 *. harrell_davis sorted 0.50);
    metric "latency_p90_ms" "ms" (1e3 *. harrell_davis sorted 0.90);
  ]

(* The same percentiles for the report, with their sample count. *)
let latency_report ~units times =
  let sorted = sorted_samples times in
  let n = Array.length sorted in
  Printf.sprintf "p50 %.3f ms, p90 %.3f ms over n=%d %s (min %.3f, max %.3f)"
    (1e3 *. harrell_davis sorted 0.50) (1e3 *. harrell_davis sorted 0.90) n units
    (1e3 *. percentile sorted 0.) (1e3 *. percentile sorted 1.)

type outcome = {
  attempted : int;
  failed : int;
  correct : bool;  (** every check passed, including whole-run checks *)
  metrics : metric list;
  report : (string * string) list;
      (** human-readable lines for stderr: the issue-level metric names
          and the sample counts behind every percentile *)
}

let result_line o =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool o.correct);
         ("attempted", Json.Int o.attempted);
         ("failed", Json.Int o.failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun m ->
                  (m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.Str m.unit_) ]))
                o.metrics) );
       ])

(* Seed of round [round] of a workload: a full-width mix, so rounds of
   one seed never collide with rounds of another. *)
let round_seed ~seed ~workload round =
  Int64.to_int
    (Mcx_util.Prng.Key.to_int64 Mcx_util.Prng.Key.(int (string (root seed) workload) round))
  land 0x3fff_ffff
