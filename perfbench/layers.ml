(* Per-layer metrics of a traced run. Every workload reports the same
   names; a function a workload never calls reads 0. *)

open Common

(* The public functions the benchmark times, named
   "<layer>.<module>.<function>". *)
let functions =
  [
    "mapping.exact.map";
    "mapping.hybrid.map";
    "crossbar.defect_map.random";
    "mapping.matching.cm_of_defects";
    "service.wire.request_of_line";
    "service.canonical.resolve";
    "service.wire.response_to_line";
    "service.serve.serve_batch";
    "crossbar.sim.agrees_with_reference";
    "mapping.mapper.map_cover.hybrid";
    "mapping.mapper.map_cover.exact";
    "logic.mo_cover.minimize";
    "crossbar.cost.dual_choice";
    "netlist.tech_map.map_mo";
    "crossbar.multilevel.place";
    "crossbar.layout.of_cover";
    "benchmarks.suite.cover";
  ]

let layers = [ "mapping"; "crossbar"; "logic"; "netlist"; "service"; "benchmarks"; "bench" ]

(* Counts and ratios measured at the layer boundaries, with their units.
   Workloads fill in the ones they exercise. *)
let extras =
  [
    ("mapping.exact.success_share", "share");
    ("mapping.hybrid.success_share", "share");
    ("util.pool.busy_share", "share");
    ("service.serve.cache_hit_share", "share");
    ("service.serve.coalesced_share", "share");
    ("service.serve.evictions", "count");
    ("crossbar.cost.dual_share", "share");
    ("logic.products_in", "count");
    ("logic.products_out", "count");
    ("table2.hba_psucc_pct", "%");
    ("synth.two_level_area", "junctions");
    ("synth.multi_level_area", "junctions");
    ("trace.overhead_ms", "ms");
    ("trace.overhead_share", "share");
  ]

type summary = {
  metrics : metric list;
  report : (string * string) list;
}

(* [unit_spans] are the trees rooted at one trial, request or function:
   the self-time shares are taken over them. [other_spans] (set-up, the
   real serve_batch calls) count towards the per-function figures only. *)
let summarize ~unit_spans ~other_spans ~extras:given =
  let unit_self = Spans.self_ns unit_spans in
  let total_self = List.fold_left (fun acc (_, s) -> acc +. s) 0. unit_self in
  let share x = if total_self > 0. then x /. total_self else 0. in
  let self_of pred =
    List.fold_left (fun acc (sp, s) -> if pred sp.Spans.name then acc +. s else acc) 0. unit_self
  in
  let all = unit_spans @ other_spans in
  let per_function name =
    let durations =
      List.filter_map
        (fun sp -> if sp.Spans.name = name then Some (Spans.duration_ns sp) else None)
        all
    in
    let sorted = sorted_samples durations in
    let busy = Array.fold_left ( +. ) 0. sorted in
    let self_share = share (self_of (String.equal name)) in
    ( [
        metric (name ^ ".calls") "count" (float_of_int (Array.length sorted));
        metric (name ^ ".busy_ms") "ms" (busy /. 1e6);
        metric (name ^ ".p50_us") "us" (percentile sorted 0.50 /. 1e3);
        metric (name ^ ".p99_us") "us" (percentile sorted 0.99 /. 1e3);
        metric (name ^ ".self_share") "share" self_share;
      ],
      if Array.length sorted = 0 then []
      else
        [
          ( name,
            Printf.sprintf "calls=%d busy=%.1fms p50=%.1fus p99=%.1fus (n=%d, min %.1fus, max %.1fus) self=%.1f%%"
              (Array.length sorted) (busy /. 1e6)
              (percentile sorted 0.50 /. 1e3)
              (percentile sorted 0.99 /. 1e3)
              (Array.length sorted) (sorted.(0) /. 1e3)
              (sorted.(Array.length sorted - 1) /. 1e3)
              (100. *. self_share) );
        ] )
  in
  let fn = List.map per_function functions in
  let layer_metrics =
    List.map
      (fun l ->
        metric ("self_share." ^ l) "share"
          (share (self_of (fun name -> Spans.layer_of name = l))))
      layers
  in
  let extra_metrics =
    List.map
      (fun (name, unit_) ->
        metric name unit_ (Option.value (List.assoc_opt name given) ~default:0.))
      extras
  in
  {
    metrics = List.concat_map fst fn @ layer_metrics @ extra_metrics;
    report =
      List.concat_map snd fn
      @ List.map
          (fun m -> (m.name, Printf.sprintf "%.4f %s" m.value m.unit_))
          (layer_metrics @ List.filter (fun m -> List.mem_assoc m.name given) extra_metrics);
  }
