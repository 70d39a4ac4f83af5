(* serve_mix: a closed loop with one client sending fixed-size batches
   to Serve.serve_batch on a fresh server. Many small mapping problems,
   mostly hybrid, with skewed popularity over more distinct problems
   than the cache holds, so hits, misses, in-batch coalescing and
   evictions all occur. The only workload where the service layer and
   the crossbar simulator do real work. *)

open Mcx_util
open Common
module Suite = Mcx_benchmarks.Suite
module Mo_cover = Mcx_logic.Mo_cover
module Geometry = Mcx_crossbar.Geometry
module Defect_map = Mcx_crossbar.Defect_map
module Function_matrix = Mcx_crossbar.Function_matrix
module Mapper = Mcx_mapping.Mapper
module Wire = Mcx_service.Wire
module Canonical = Mcx_service.Canonical
module Serve = Mcx_service.Serve

let name = "serve_mix"
let batch_size = 64

(* Distinct problems: four times the cache, drawn with Zipf(1)
   popularity, so roughly four requests in five hit a warm cache. *)
let distinct_problems = 4 * cache_capacity
let zipf_exponent = 1.0

(* Batches served before measuring, so the cache reaches its steady
   state; they are part of the run but not of its figures. *)
let warmup_batches = 32

(* Small and medium circuits: at most 10 inputs and 130 crossbar rows. *)
let sources () =
  Array.of_list
    (List.filter (fun b -> b.Suite.inputs <= 10 && b.Suite.products + b.Suite.outputs <= 130) Suite.all)

let setup ?(rec_ = Spans.off) (_ : params) =
  let pool = Pool.create ~jobs:serve_jobs () in
  Array.iter
    (fun b -> ignore (Spans.with_span rec_ "benchmarks.suite.cover" (fun () -> Suite.cover b)))
    (sources ());
  (pool, Serve.create ~pool ~cache_capacity ())

(* --- the request stream --------------------------------------------- *)

type problem = {
  bench : Suite.t;
  algorithm : Mapper.algorithm;
  verify : bool;
  defect_seed : int;
  open_rate : float;
}

(* Problem attributes are stratified over popularity ranks rather than
   drawn independently: circuits are dealt to ranks in turn, and within
   each circuit's ranks one in ten is exact, one in twenty verified and
   the defect rates cycle, each pattern at a seed-chosen offset. So every
   seed serves the same mix of costs and the figures stay comparable
   across seeds; the seed draws the offsets, the defect maps, the
   spelling of each request and the popularity draws. *)
let problem ~seed ~sources rank =
  let prng = Prng.derive Prng.Key.(string (root seed) "serve_mix.problem") rank in
  let offsets = Prng.create seed in
  let exact_off = Prng.int offsets 10 and verify_off = Prng.int offsets 20 in
  let rate_off = Prng.int offsets 3 in
  let n = Array.length sources in
  let q = rank / n in
  {
    bench = sources.(rank mod n);
    algorithm = (if (q + exact_off) mod 10 = 0 then Mapper.Exact else Mapper.Hybrid);
    verify = (q + verify_off) mod 20 = 0;
    open_rate = [| 0.02; 0.05; 0.10 |].((q + rate_off) mod 3);
    defect_seed = Prng.int prng 1_000_000_000;
  }

let zipf_cdf () =
  let w = Array.init distinct_problems (fun k -> 1. /. (float_of_int (k + 1) ** zipf_exponent)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let draw_rank cdf prng =
  let u = Prng.float prng in
  let rec search lo hi = if lo >= hi then lo else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) < u then search (mid + 1) hi else search lo mid
  in
  search 0 (Array.length cdf - 1)

let geometry cover =
  Geometry.create ~n_inputs:(Mo_cover.n_inputs cover) ~n_outputs:(Mo_cover.n_outputs cover)
    ~n_products:(Mo_cover.product_count cover) ()

let seeded_defects pb cover =
  let g = geometry cover in
  Defect_map.random (Prng.create pb.defect_seed) ~rows:(Geometry.rows g) ~cols:(Geometry.cols g)
    ~open_rate:pb.open_rate ~closed_rate:0.

let permuted_rows prng cover =
  let rows = Array.of_list (Mo_cover.rows cover) in
  Prng.shuffle_in_place prng rows;
  Mo_cover.create ~n_inputs:(Mo_cover.n_inputs cover) ~n_outputs:(Mo_cover.n_outputs cover)
    (Array.to_list rows)

(* An equivalent copy with relabeled variables: the defect map's literal
   columns move with their variables, so the physical problem (and its
   canonical digest, when variable signatures are distinct) is unchanged. *)
let relabeled prng pb cover =
  let n = Mo_cover.n_inputs cover in
  let perm = Array.init n Fun.id in
  Prng.shuffle_in_place prng perm;
  let cover' = Mo_cover.permute_vars (permuted_rows prng cover) ~perm in
  let g = geometry cover in
  let defects = seeded_defects pb cover in
  let open_ = ref [] in
  for i = Geometry.rows g - 1 downto 0 do
    for j = Geometry.cols g - 1 downto 0 do
      if Defect_map.get defects i j <> Mcx_crossbar.Junction.Functional then begin
        let j' =
          match Geometry.column_role g j with
          | Geometry.Input_pos v -> Geometry.column_of_role g (Geometry.Input_pos perm.(v))
          | Geometry.Input_neg v -> Geometry.column_of_role g (Geometry.Input_neg perm.(v))
          | Geometry.Output_main _ | Geometry.Output_comp _ -> j
        in
        open_ := (i, j') :: !open_
      end
    done
  done;
  ( `Pla (Mcx_logic.Pla.to_string cover'),
    Wire.Explicit { rows = Geometry.rows g; cols = Geometry.cols g; stuck_open = !open_; stuck_closed = [] } )

(* Request [index] of the stream: a problem drawn by popularity, in one
   of four spellings that all denote it. No deadline_ms: its status
   would depend on measured time. *)
(* The cover a server reads from a circuit's PLA text. Reading shares
   equal cubes across outputs, so for a few circuits it has fewer rows
   than the registered cover and is a different mapping problem. *)
let inline_cover b = (Mcx_logic.Pla.parse_string (Mcx_logic.Pla.to_string (Suite.cover b))).Mcx_logic.Pla.cover

let request ~seed ~sources ~cdf index =
  let prng = Prng.derive Prng.Key.(string (root seed) "serve_mix.request") index in
  let pb = problem ~seed ~sources:(Array.map fst sources) (draw_rank cdf prng) in
  let cover = List.assq pb.bench (Array.to_list sources) in
  let seeded = Wire.Seeded { seed = pb.defect_seed; open_rate = pb.open_rate; closed_rate = 0. } in
  let source, defects =
    match Prng.int prng 4 with
    | 0 -> (`Benchmark pb.bench.Suite.name, seeded)
    | 1 -> (`Pla (Mcx_logic.Pla.to_string cover), seeded)
    | 2 -> (`Pla (Mcx_logic.Pla.to_string (permuted_rows prng cover)), seeded)
    | _ -> relabeled prng pb cover
  in
  {
    Wire.id = Printf.sprintf "q%d" index;
    source;
    defects;
    config =
      {
        Wire.mapper = { Mapper.default with Mapper.algorithm = pb.algorithm };
        verify = pb.verify;
        deadline_ms = None;
      };
  }

let line r = Json_out.to_string (Wire.request_to_json r)

type stream = { seed : int; sources : (Suite.t * Mo_cover.t) array; cdf : float array }

let stream seed =
  { seed; sources = Array.map (fun b -> (b, inline_cover b)) (sources ()); cdf = zipf_cdf () }
let batch s k = List.init batch_size (fun i -> request ~seed:s.seed ~sources:s.sources ~cdf:s.cdf ((k * batch_size) + i))

let emit ~seed ~requests path =
  let s = stream seed in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      for i = 0 to requests - 1 do
        output_string oc (line (request ~seed:s.seed ~sources:s.sources ~cdf:s.cdf i));
        output_char oc '\n'
      done)

(* --- checks ------------------------------------------------------------ *)

(* Feasibility by request content (the request minus its id), so the
   checks never rely on the server's own digest. *)
type checker = { feasible_by_request : (string, bool) Hashtbl.t }

let checker () = { feasible_by_request = Hashtbl.create 1024 }

let request_problem (r : Wire.request) =
  let cover =
    match r.Wire.source with
    | `Benchmark n -> Suite.cover (Suite.find n)
    | `Pla text -> (Mcx_logic.Pla.parse_string text).Mcx_logic.Pla.cover
  in
  let g = geometry cover in
  let defects =
    match r.Wire.defects with
    | Wire.Seeded { seed; open_rate; closed_rate } ->
      Defect_map.random (Prng.create seed) ~rows:(Geometry.rows g) ~cols:(Geometry.cols g)
        ~open_rate ~closed_rate
    | Wire.Explicit { rows; cols; stuck_open; _ } ->
      let d = Defect_map.create ~rows ~cols in
      List.iter (fun (i, j) -> Defect_map.set d i j Mcx_crossbar.Junction.Stuck_open) stuck_open;
      d
    | Wire.Pristine -> Defect_map.create ~rows:(Geometry.rows g) ~cols:(Geometry.cols g)
  in
  Check.problem_of_defects ~fm:(Function_matrix.build cover).Function_matrix.matrix defects

(* One response against its request: no errors, a valid assignment in
   the request's own row order, verification never false or silently
   skipped, and every exact answer confirmed by the benchmark's own
   matching. *)
let check_response c (r : Wire.request) response_line =
  match Json_out.of_string response_line with
  | Error _ -> false
  | Ok json -> (
    let field k = Json_out.member k json in
    let status = Option.bind (field "status") Json_out.to_string_opt in
    let p = lazy (request_problem r) in
    let feasible () =
      let key = Digest.string (line { r with Wire.id = "" }) in
      match Hashtbl.find_opt c.feasible_by_request key with
      | Some f -> f
      | None ->
        let f = Check.feasible (Lazy.force p) in
        Hashtbl.replace c.feasible_by_request key f;
        f
    in
    let exact = r.Wire.config.Wire.mapper.Mapper.algorithm = Mapper.Exact in
    match status with
    | Some "ok" ->
      let assignment =
        Option.bind (field "assignment") Json_out.to_list_opt
        |> Option.map (List.filter_map Json_out.to_int_opt)
        |> Option.map Array.of_list
      in
      let verified = Option.bind (field "verified") Json_out.to_bool_opt in
      (match assignment with Some a -> Check.assignment_valid (Lazy.force p) a | None -> false)
      && ((not r.Wire.config.Wire.verify) || verified = Some true)
      && ((not exact) || feasible ())
    | Some "infeasible" -> (not exact) || not (feasible ())
    | _ -> false)

let check_batch c requests responses =
  List.fold_left2 (fun acc r l -> if check_response c r l then acc else acc + 1) 0 requests responses

(* --- untraced ------------------------------------------------------------ *)

let untraced (p : params) =
  let pool, server = setup p in
  let s = stream p.seed in
  let c = checker () in
  let failed = ref 0 and served = ref 0 in
  let serve k =
    let requests = batch s k in
    let lines = List.map line requests in
    let t0 = now () in
    let responses, _ = Serve.serve_batch server ~label:(string_of_int k) lines in
    let dt = now () -. t0 in
    failed := !failed + check_batch c requests responses;
    served := !served + List.length requests;
    dt
  in
  for k = 0 to warmup_batches - 1 do
    ignore (serve k)
  done;
  let t_start = now () in
  let times = ref [] and k = ref warmup_batches in
  while now () -. t_start < p.seconds do
    times := serve !k :: !times;
    incr k
  done;
  Pool.shutdown pool;
  let measured = List.length !times * batch_size in
  let stats = List.filteri (fun i _ -> i >= warmup_batches) (Serve.batches server) in
  let sum f = List.fold_left (fun acc b -> acc + f b) 0 stats in
  {
    attempted = !served;
    failed = !failed;
    correct = !failed = 0 && Serve.error_count server = 0;
    metrics = end_to_end ~rss:(peak_rss_mb ()) ~items:measured !times;
    report =
      [
        ( "requests_per_s",
          Printf.sprintf "%.2f req/s (%d measured batches of %d, after %d warm-up)"
            (float_of_int measured /. List.fold_left ( +. ) 0. !times)
            (List.length !times) batch_size warmup_batches );
        ("batch_p50_ms / batch_p90_ms", latency_report ~units:"batches" !times);
        ( "cache",
          Printf.sprintf "hits %d, misses %d, coalesced %d, evictions %d of %d measured requests"
            (sum (fun b -> b.Serve.hits)) (sum (fun b -> b.Serve.misses))
            (sum (fun b -> b.Serve.coalesced)) (sum (fun b -> b.Serve.evictions))
            (sum (fun b -> b.Serve.requests)) );
      ];
  }

(* --- traced ------------------------------------------------------------ *)

type cached = { assignment : int array option; verified : bool option }

(* One batch through the public stage functions in serve's order (parse,
   resolve, cache, map, verify, translate, render), against the
   benchmark's own model of the cache. Returns the response lines. *)
let replay_batch ~enabled ~base_id lru lines =
  let lines = Array.of_list lines in
  let recs = Array.mapi (fun i _ -> Spans.recorder ~enabled ~unit_id:(base_id + i)) lines in
  let parsed =
    Array.mapi
      (fun i l ->
        Spans.with_span recs.(i) "service.wire.request_of_line" (fun () ->
            Wire.request_of_line ~index:i l))
      lines
  in
  let resolved =
    Array.mapi
      (fun i r ->
        match r with
        | Ok req -> Spans.with_span recs.(i) "service.canonical.resolve" (fun () -> Canonical.resolve req)
        | Error e -> failwith e)
      parsed
  in
  (* Lookups in request order; a digest already missed in this batch is
     coalesced onto that computation, as Serve does. *)
  let batch = Hashtbl.create 16 and pending = Hashtbl.create 16 in
  let misses = ref [] in
  Array.iteri
    (fun i (c : Canonical.t) ->
      let d = c.Canonical.digest in
      if not (Hashtbl.mem pending d) then
        match Lru.find lru d with
        | Some v -> Hashtbl.replace batch d v
        | None ->
          Hashtbl.replace pending d ();
          misses := (i, c) :: !misses)
    resolved;
  List.iter
    (fun (i, (c : Canonical.t)) ->
      let config = c.Canonical.request.Wire.config in
      let algo = Mapper.algorithm_to_string config.Wire.mapper.Mapper.algorithm in
      let layout =
        Spans.with_span recs.(i) ("mapping.mapper.map_cover." ^ algo) (fun () ->
            Mapper.map_cover config.Wire.mapper c.Canonical.cover c.Canonical.defects)
      in
      let v =
        match layout with
        | None -> { assignment = None; verified = None }
        | Some layout ->
          let verified =
            if config.Wire.verify then
              Some
                (Spans.with_span recs.(i) "crossbar.sim.agrees_with_reference" (fun () ->
                     Mcx_crossbar.Sim.agrees_with_reference ~defects:c.Canonical.defects layout))
            else None
          in
          { assignment = Some layout.Mcx_crossbar.Layout.row_assignment; verified }
      in
      Hashtbl.replace batch c.Canonical.digest v;
      Lru.put lru c.Canonical.digest v)
    (List.rev !misses);
  Array.to_list
    (Array.mapi
       (fun i (c : Canonical.t) ->
         let id = c.Canonical.request.Wire.id in
         let v = Hashtbl.find batch c.Canonical.digest in
         let response =
           match v.assignment with
           | None -> { (Wire.response ~id Wire.Infeasible) with Wire.digest = Some c.Canonical.digest }
           | Some a ->
             let translated =
               Spans.with_span recs.(i) "service.canonical.translate_assignment" (fun () ->
                   Canonical.translate_assignment c a)
             in
             {
               (Wire.response ~id Wire.Ok_mapped) with
               Wire.digest = Some c.Canonical.digest;
               rows = Some (Geometry.rows c.Canonical.geometry);
               cols = Some (Geometry.cols c.Canonical.geometry);
               assignment = Some translated;
               verified = v.verified;
             }
         in
         let rendered =
           Spans.with_span recs.(i) "service.wire.response_to_line" (fun () ->
               Wire.response_to_line response)
         in
         (rendered, Spans.spans recs.(i)))
       resolved)

let traced (p : params) =
  let setup_rec = Spans.recorder ~enabled:true ~unit_id:(-1) in
  let pool, server = setup ~rec_:setup_rec p in
  let s = stream p.seed in
  let c = checker () in
  let plain_lru = Lru.create ~capacity:cache_capacity () in
  let traced_lru = Lru.create ~capacity:cache_capacity () in
  let failed = ref 0 and attempted = ref 0 in
  let unit_spans = ref [] and other_spans = ref [] in
  let plain_wall = ref 0. and traced_wall = ref 0. in
  let measured_stats = ref [] in
  let step ~measure k =
    let requests = batch s k in
    let lines = List.map line requests in
    let base_id = k * batch_size in
    let plain () =
      let t0 = now () in
      let out = replay_batch ~enabled:false ~base_id plain_lru lines in
      if measure then plain_wall := !plain_wall +. (now () -. t0);
      out
    in
    let traced () =
      let t0 = now () in
      let out = replay_batch ~enabled:measure ~base_id traced_lru lines in
      if measure then traced_wall := !traced_wall +. (now () -. t0);
      out
    in
    let plain_out, traced_out = Spans.both ~untraced_first:(k mod 2 = 0) plain traced in
    let batch_rec = Spans.recorder ~enabled:measure ~unit_id:(-2 - k) in
    let responses, stats =
      Spans.with_span batch_rec "service.serve.serve_batch" (fun () ->
          Serve.serve_batch server ~label:(string_of_int k) lines)
    in
    (* The replay must answer exactly as the server did. *)
    let mismatches =
      List.fold_left2
        (fun acc (a, _) ((b, _), served) -> if a = b && b = served then acc else acc + 1)
        0 plain_out (List.combine traced_out responses)
    in
    failed := !failed + mismatches + check_batch c requests responses;
    attempted := !attempted + List.length requests;
    if measure then begin
      List.iter (fun (_, sp) -> unit_spans := List.rev_append sp !unit_spans) traced_out;
      other_spans := List.rev_append (Spans.spans batch_rec) !other_spans;
      measured_stats := stats :: !measured_stats
    end
  in
  for k = 0 to warmup_batches - 1 do
    step ~measure:false k
  done;
  let t_start = now () and k = ref warmup_batches in
  while now () -. t_start < p.seconds do
    step ~measure:true !k;
    incr k
  done;
  Pool.shutdown pool;
  let stats = !measured_stats in
  let sum f = float_of_int (List.fold_left (fun acc b -> acc + f b) 0 stats) in
  let requests = sum (fun b -> b.Serve.requests) in
  let unit_spans = List.rev !unit_spans in
  let summary =
    Layers.summarize ~unit_spans ~other_spans:(List.rev_append !other_spans (Spans.spans setup_rec))
      ~extras:
        [
          ("service.serve.cache_hit_share", sum (fun b -> b.Serve.hits) /. requests);
          ("service.serve.coalesced_share", sum (fun b -> b.Serve.coalesced) /. requests);
          ("service.serve.evictions", sum (fun b -> b.Serve.evictions));
          ("trace.overhead_ms", 1e3 *. (!traced_wall -. !plain_wall));
          ("trace.overhead_share", (!traced_wall -. !plain_wall) /. !plain_wall);
        ]
  in
  ( {
      attempted = !attempted;
      failed = !failed;
      correct = !failed = 0 && Serve.error_count server = 0;
      metrics = summary.Layers.metrics;
      report = summary.Layers.report;
    },
    unit_spans @ List.rev !other_spans @ Spans.spans setup_rec )
