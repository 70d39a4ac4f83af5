(* synth_wide: Fig. 6-style random single-output functions at 16 to 20
   inputs, synthesized one at a time on one domain: two-level
   minimization and dual choice, then the multi-level NAND mapping and
   placement. The logic layer does nearly all the work; there is no
   mapping, service or exhaustive simulation in the timed region. *)

open Mcx_util
open Common
module Cover = Mcx_logic.Cover
module Cube = Mcx_logic.Cube
module Mo_cover = Mcx_logic.Mo_cover
module Random_sop = Mcx_logic.Random_sop
module Cost = Mcx_crossbar.Cost
module Layout = Mcx_crossbar.Layout
module Multilevel = Mcx_crossbar.Multilevel
module Tech_map = Mcx_netlist.Tech_map

let name = "synth_wide"

(* One round: two functions at each input count from 16 to 20. A run
   goes through whole cycles of the same six rounds, so every run
   times the same multiset of functions and its percentiles do not
   depend on where the time ran out. *)
let round_size = 10
let cycle = 6
let input_count j = 16 + (j mod 5)

(* Nothing to build ahead: functions are inputs, generated per round. *)
let setup (_ : params) = ()

(* Function [j] of round [round]: a Random_sop.paper_params function
   drawn under a key that does not involve the seed, with its cubes
   reordered by the seed. Synthesis cost is heavy-tailed (one dense
   20-input function costs as much as a thousand sparse ones), so
   letting the seed redraw the functions would make runs with different
   seeds incomparable. Reordering the cubes moved the cost of one
   function by about 3% at most across seeds. Flipping variable
   polarities moved it by up to 40%, and permuting the variables by up
   to a factor of two, as both change the minimizer's tie-breaks. *)
let generate ~seed round j =
  let base_prng = Prng.derive Prng.Key.(int (string (root 0) "synth_wide.functions") round) j in
  let params = Random_sop.paper_params base_prng ~n_inputs:(input_count j) in
  let base = Random_sop.random_cover base_prng params in
  let prng = Prng.derive Prng.Key.(int (string (root seed) name) round) j in
  let cubes = Array.of_list (Cover.cubes base) in
  Prng.shuffle_in_place prng cubes;
  (Cover.create ~arity:(Cover.arity base) (Array.to_list cubes), prng)

type design = {
  products_out : int;
  dual : bool;
  two_level : Layout.t;
  two_level_area : int;
  multi_level : Multilevel.t;
}

let synthesize rec_ f =
  Spans.with_span rec_ "function" (fun () ->
      let minimized =
        Spans.with_span rec_ "logic.mo_cover.minimize" (fun () -> Mo_cover.minimize (Mo_cover.of_single f))
      in
      let chosen, report, dual =
        Spans.with_span rec_ "crossbar.cost.dual_choice" (fun () -> Cost.dual_choice minimized)
      in
      let two_level = Spans.with_span rec_ "crossbar.layout.of_cover" (fun () -> Layout.of_cover chosen) in
      let mapped = Spans.with_span rec_ "netlist.tech_map.map_mo" (fun () -> Tech_map.map_mo minimized) in
      let multi_level = Spans.with_span rec_ "crossbar.multilevel.place" (fun () -> Multilevel.place mapped) in
      {
        products_out = Mo_cover.product_count minimized;
        dual;
        two_level;
        two_level_area = report.Cost.area;
        multi_level;
      })

(* Outside the timed region: both placed designs must compute the
   original random cover on sampled vectors — uniform ones, plus one
   inside each of the first cubes so the ON-set is exercised too. *)
let vectors = 32

let agrees prng f d =
  let n = Cover.arity f in
  let uniform () = Array.init n (fun _ -> Prng.bool prng) in
  let inside cube =
    Array.init n (fun v ->
        match Cube.get cube v with
        | Mcx_logic.Literal.Pos -> true
        | Mcx_logic.Literal.Neg -> false
        | Mcx_logic.Literal.Absent -> Prng.bool prng)
  in
  let cubes = List.filteri (fun i _ -> i < vectors) (Cover.cubes f) in
  let samples = List.init vectors (fun _ -> uniform ()) @ List.map inside cubes in
  List.for_all
    (fun v ->
      let expected = Cover.eval f v in
      let two = (Mcx_crossbar.Sim.run d.two_level v).(0) in
      let multi = (Multilevel.run d.multi_level v).(0) in
      two = (if d.dual then not expected else expected) && multi = expected)
    samples

(* Each function is synthesized once per cycle, and its latency is the
   median of its times over the cycles of the run. The host's speed
   drifts by up to 40% over a second or so; cycles take seconds, so the
   times of one function are spread over the whole run and their median
   is that of the host's usual speed, not of the phase one function
   happened to land in. The latency percentiles are taken over the
   per-function medians; throughput counts every timed call. *)
let untraced (p : params) =
  let t_start = now () in
  let samples = Array.make (cycle * round_size) [] in
  let failed = ref 0 and round = ref 0 in
  let area0 = ref (0, 0) in
  while !round mod cycle <> 0 || now () -. t_start < p.seconds do
    for j = 0 to round_size - 1 do
      let f, vprng = generate ~seed:p.seed (!round mod cycle) j in
      let t0 = now () in
      let d = synthesize Spans.off f in
      let dt = now () -. t0 in
      let k = ((!round mod cycle) * round_size) + j in
      samples.(k) <- dt :: samples.(k);
      if not (agrees vprng f d) then incr failed;
      if !round = 0 then
        area0 := (fst !area0 + d.two_level_area, snd !area0 + Multilevel.area d.multi_level)
    done;
    incr round
  done;
  let all = Array.fold_left List.rev_append [] samples in
  let n = List.length all in
  let medians = Array.to_list (Array.map (fun l -> percentile (sorted_samples l) 0.5) samples) in
  {
    attempted = n;
    failed = !failed;
    correct = !failed = 0;
    metrics = end_to_end ~latencies:medians ~rss:(peak_rss_mb ()) ~items:n all;
    report =
      [
        ( "functions_per_s",
          Printf.sprintf "%.3f fn/s (%d functions, %d cycles of %d rounds)"
            (float_of_int n /. List.fold_left ( +. ) 0. all)
            n (!round / cycle) cycle );
        ( "function_p50_ms / function_p90_ms",
          latency_report ~units:"per-function medians" medians );
        ("two_level_area", Printf.sprintf "%d junctions (round 0, %d functions)" (fst !area0) round_size);
        ("multi_level_area", Printf.sprintf "%d junctions (round 0, %d functions)" (snd !area0) round_size);
      ];
  }

let traced (p : params) =
  let t_start = now () in
  let plain_wall = ref 0. and traced_wall = ref 0. in
  let unit_spans = ref [] and failed = ref 0 and n = ref 0 and round = ref 0 in
  let duals = ref 0 and products_in = ref 0 and products_out = ref 0 in
  let area0 = ref (0, 0) in
  while !round mod cycle <> 0 || now () -. t_start < p.seconds do
    for j = 0 to round_size - 1 do
      let f, vprng = generate ~seed:p.seed (!round mod cycle) j in
      let unit_id = (!round * round_size) + j in
      let plain () =
        let t0 = now () in
        ignore (synthesize Spans.off f);
        plain_wall := !plain_wall +. (now () -. t0)
      in
      let traced () =
        let r = Spans.recorder ~enabled:true ~unit_id in
        let t0 = now () in
        let d = synthesize r f in
        traced_wall := !traced_wall +. (now () -. t0);
        unit_spans := List.rev_append (Spans.spans r) !unit_spans;
        d
      in
      let (), d = Spans.both ~untraced_first:(unit_id mod 2 = 0) plain traced in
      incr n;
      if not (agrees vprng f d) then incr failed;
      if d.dual then incr duals;
      products_in := !products_in + Cover.size f;
      products_out := !products_out + d.products_out;
      if !round = 0 then
        area0 := (fst !area0 + d.two_level_area, snd !area0 + Multilevel.area d.multi_level)
    done;
    incr round
  done;
  let unit_spans = List.rev !unit_spans in
  let summary =
    Layers.summarize ~unit_spans ~other_spans:[]
      ~extras:
        [
          ("crossbar.cost.dual_share", float_of_int !duals /. float_of_int !n);
          ("logic.products_in", float_of_int !products_in);
          ("logic.products_out", float_of_int !products_out);
          ("synth.two_level_area", float_of_int (fst !area0));
          ("synth.multi_level_area", float_of_int (snd !area0));
          ("trace.overhead_ms", 1e3 *. (!traced_wall -. !plain_wall));
          ("trace.overhead_share", (!traced_wall -. !plain_wall) /. !plain_wall);
        ]
  in
  ( { attempted = !n; failed = !failed; correct = !failed = 0; metrics = summary.Layers.metrics; report = summary.Layers.report },
    unit_spans )
