(* Spans recorded from the benchmark's own code, around its calls into
   the library. Each unit of work (a trial, a request, a function) owns
   one recorder, so pool workers never share mutable state; the spans
   of all units are merged in unit order afterwards. *)

module Timing = Mcx_util.Timing
module Json = Mcx_util.Json_out

type span = {
  name : string;
  unit_id : int;  (** shared by every span of one trial, request or function *)
  index : int;  (** position within its unit, in opening order *)
  parent : int;  (** [index] of the enclosing span, -1 for the unit's root *)
  start_ns : int64;
  stop_ns : int64;
  tid : int;  (** the domain that ran the unit *)
}

type recorder = {
  enabled : bool;
  unit_id : int;
  tid : int;
  mutable next : int;
  mutable open_spans : int list;
  mutable closed : span list;
}

let recorder ~enabled ~unit_id =
  {
    enabled;
    unit_id;
    tid = (Domain.self () :> int);
    next = 0;
    open_spans = [];
    closed = [];
  }

(* A recorder that records nothing; never mutated, so any domain may
   share it. *)
let off = recorder ~enabled:false ~unit_id:(-1)

(* Run one unit's untraced and traced replays, alternating which goes
   first so that warm caches favour neither; both results, untraced
   first. *)
let both ~untraced_first untraced traced =
  if untraced_first then
    let u = untraced () in
    (u, traced ())
  else
    let t = traced () in
    (untraced (), t)

let with_span r name f =
  if not r.enabled then f ()
  else begin
    let index = r.next in
    r.next <- index + 1;
    let parent = match r.open_spans with p :: _ -> p | [] -> -1 in
    r.open_spans <- index :: r.open_spans;
    let start_ns = Timing.monotonic_ns () in
    let close () =
      let stop_ns = Timing.monotonic_ns () in
      r.open_spans <- List.tl r.open_spans;
      r.closed <-
        { name; unit_id = r.unit_id; index; parent; start_ns; stop_ns; tid = r.tid }
        :: r.closed
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

let spans r = List.rev r.closed
let duration_ns (s : span) = Int64.to_float (Int64.sub s.stop_ns s.start_ns)

(* Self time: a span's duration minus the part its direct children
   cover. Spans of one unit run sequentially, so children never
   overlap and the subtraction is exact. *)
let self_ns spans =
  let children = Hashtbl.create 256 in
  List.iter
    (fun (s : span) ->
      if s.parent >= 0 then begin
        let key = (s.unit_id, s.parent) in
        let prev = Option.value (Hashtbl.find_opt children key) ~default:0. in
        Hashtbl.replace children key (prev +. duration_ns s)
      end)
    spans;
  List.map
    (fun (s : span) ->
      let covered =
        Option.value (Hashtbl.find_opt children (s.unit_id, s.index)) ~default:0.
      in
      (s, duration_ns s -. covered))
    spans

(* The layer of a span is its name up to the first dot
   ("mapping.exact.map" -> "mapping"); the benchmark's own unit spans
   have no dot and form the "bench" layer. *)
let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> "bench"

let chrome_trace ~other spans =
  let t0 =
    List.fold_left (fun acc (s : span) -> if Int64.compare s.start_ns acc < 0 then s.start_ns else acc)
      (match spans with (s : span) :: _ -> s.start_ns | [] -> 0L)
      spans
  in
  let us ns = Int64.to_float ns /. 1e3 in
  let event ((s : span), self) =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("cat", Json.Str (layer_of s.name));
        ("ph", Json.Str "X");
        ("ts", Json.Float (us (Int64.sub s.start_ns t0)));
        ("dur", Json.Float (duration_ns s /. 1e3));
        ("pid", Json.Int 1);
        ("tid", Json.Int s.tid);
        ( "args",
          Json.Obj
            [
              ("id", Json.Int s.unit_id);
              ("span", Json.Int s.index);
              ("parent", Json.Int s.parent);
              ("self_us", Json.Float (self /. 1e3));
            ] );
      ]
  in
  Json.Obj
    [
      ("traceEvents", Json.List (List.map event (self_ns spans)));
      ("displayTimeUnit", Json.Str "ms");
      ("otherData", other);
    ]
