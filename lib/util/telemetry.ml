(* One observability store. Every domain records into its own buffer
   (domain-local storage), so recording never takes a lock: the registry
   mutex guards only buffer creation, family metadata, gauge cells and
   the final snapshot. Every recorded value is a series keyed by
   (family, key). Spans are series of the histogram family
   [mcx_telemetry_span_ns] and unlabeled counters series of the counter
   family [mcx_telemetry_counter], both keyed by their bare name, so the
   span and count hot paths skip label normalization. Labeled series are keyed
   by their canonical label rendering. Series merge by key with
   commutative sums, so no view rendered from a snapshot can depend on
   which domain ran which trial. *)

let n_buckets = 64
let max_events_per_buffer = 1_000_000

type kind = Counter | Gauge | Histogram
type labels = (string * string) list

let kind_name = function Counter -> "counter" | Gauge -> "gauge" | Histogram -> "histogram"
let span_family = "mcx_telemetry_span_ns"
let counter_family = "mcx_telemetry_counter"

type hist = {
  mutable calls : int;
  mutable total_ns : int64;
  mutable max_ns : int64;
  buckets : int array;
}

type event = { ev_name : string; ev_ts : int64; ev_dur : int64 }

module Keyed = Hashtbl.Make (struct
  type t = string * string

  let equal (a, b) (c, d) = String.equal a c && String.equal b d
  let hash (a, b) = (31 * String.hash a) + String.hash b
end)

type buffer = {
  tid : int;
  hists : (labels * hist) Keyed.t;
  counters : (labels * int ref) Keyed.t;
  (* Families this domain already kind-checked: labeled recording checks
     locally instead of taking the registry mutex per record. *)
  known : (string, kind) Hashtbl.t;
  mutable stack : (string * int64) list;
  mutable events : event array;
  mutable n_events : int;
  mutable dropped : int;
}

type meta = { kind : kind; help : string; measured : bool }

let enabled_flag = ref false
let events_flag = ref false
let epoch = ref 0L
let registry : buffer list ref = ref []
let registry_mutex = Mutex.create ()
let next_tid = Atomic.make 0

(* Family metadata and gauge cells (current values, not sums); both
   guarded by [registry_mutex]. *)
let families : (string, meta) Hashtbl.t = Hashtbl.create 32
let gauges : (labels * float) Keyed.t = Keyed.create 16

let declare_builtin_families () =
  Hashtbl.replace families span_family
    { kind = Histogram; help = "telemetry span durations by span name"; measured = false };
  Hashtbl.replace families counter_family
    { kind = Counter; help = "telemetry counter totals (see MCX_TRACE)"; measured = false }

let () = declare_builtin_families ()

let buffer_key =
  Domain.DLS.new_key (fun () ->
      let b =
        {
          tid = Atomic.fetch_and_add next_tid 1;
          hists = Keyed.create 64;
          counters = Keyed.create 64;
          known = Hashtbl.create 16;
          stack = [];
          events = [||];
          n_events = 0;
          dropped = 0;
        }
      in
      Mutex.protect registry_mutex (fun () -> registry := b :: !registry);
      b)

let buffer () = Domain.DLS.get buffer_key

let enabled () = !enabled_flag

let enable ?(events = false) () =
  epoch := Timing.monotonic_ns ();
  events_flag := events;
  enabled_flag := true

let disable () = enabled_flag := false

let reset () =
  Mutex.protect registry_mutex (fun () ->
      Hashtbl.reset families;
      declare_builtin_families ();
      Keyed.reset gauges;
      List.iter
        (fun b ->
          Keyed.reset b.hists;
          Keyed.reset b.counters;
          Hashtbl.reset b.known;
          b.stack <- [];
          b.events <- [||];
          b.n_events <- 0;
          b.dropped <- 0)
        !registry)

(* --- histogram geometry --- *)

let bucket_of_ns ns =
  if Int64.compare ns 2L < 0 then 0
  else begin
    (* durations fit comfortably in a native int on 64-bit *)
    let n = Int64.to_int ns in
    let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1) in
    min (n_buckets - 1) (log2 n 0)
  end

let bucket_bounds i =
  if i < 0 || i >= n_buckets then invalid_arg "Telemetry.bucket_bounds";
  let lo = if i = 0 then 0L else Int64.shift_left 1L i in
  let hi = if i = n_buckets - 1 then Int64.max_int else Int64.shift_left 1L (i + 1) in
  (lo, hi)

(* --- recording --- *)

(* [labels] are stored only when the series is new. *)
let hist_of b key labels =
  match Keyed.find_opt b.hists key with
  | Some (_, h) -> h
  | None ->
    let h = { calls = 0; total_ns = 0L; max_ns = 0L; buckets = Array.make n_buckets 0 } in
    Keyed.replace b.hists key (labels, h);
    h

let add_count b key labels n =
  match Keyed.find_opt b.counters key with
  | Some (_, r) -> r := !r + n
  | None -> Keyed.replace b.counters key (labels, ref n)

let record_ns h ns =
  let ns = if Int64.compare ns 0L < 0 then 0L else ns in
  h.calls <- h.calls + 1;
  h.total_ns <- Int64.add h.total_ns ns;
  if Int64.compare ns h.max_ns > 0 then h.max_ns <- ns;
  let i = bucket_of_ns ns in
  h.buckets.(i) <- h.buckets.(i) + 1

let record_duration b name ns =
  record_ns (hist_of b (span_family, name) [ ("span", name) ]) ns

let observe_ns name ns = if !enabled_flag then record_duration (buffer ()) name ns

let count ?(n = 1) name =
  if !enabled_flag then add_count (buffer ()) (counter_family, name) [ ("name", name) ] n

let push_event b ev =
  if b.n_events >= max_events_per_buffer then b.dropped <- b.dropped + 1
  else begin
    if b.n_events = Array.length b.events then begin
      let cap = min max_events_per_buffer (max 256 (2 * Array.length b.events)) in
      let bigger = Array.make cap ev in
      Array.blit b.events 0 bigger 0 b.n_events;
      b.events <- bigger
    end;
    b.events.(b.n_events) <- ev;
    b.n_events <- b.n_events + 1
  end

let begin_span name =
  if !enabled_flag then begin
    let b = buffer () in
    b.stack <- (name, Timing.monotonic_ns ()) :: b.stack
  end

let close_frame b name t0 =
  let now = Timing.monotonic_ns () in
  let dur = Int64.sub now t0 in
  record_duration b name dur;
  if !events_flag then
    push_event b { ev_name = name; ev_ts = Int64.sub t0 !epoch; ev_dur = dur }

let end_span name =
  if !enabled_flag then begin
    let b = buffer () in
    match b.stack with
    | [] ->
      invalid_arg
        (Printf.sprintf "Telemetry.end_span: %S closed but no span is open" name)
    | (top, t0) :: rest ->
      if not (String.equal top name) then
        invalid_arg
          (Printf.sprintf "Telemetry.end_span: %S closed while %S is innermost" name top);
      b.stack <- rest;
      close_frame b name t0
  end

(* Tolerant closer for the [span] wrapper: enabling/resetting mid-flight
   must not turn the unwind into a spurious unbalanced-close failure. *)
let close_span_if_open name =
  if !enabled_flag then begin
    let b = buffer () in
    match b.stack with
    | (top, t0) :: rest when String.equal top name ->
      b.stack <- rest;
      close_frame b name t0
    | _ -> ()
  end

let span name f =
  if not !enabled_flag then f ()
  else begin
    begin_span name;
    match f () with
    | v ->
      close_span_if_open name;
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      close_span_if_open name;
      Printexc.raise_with_backtrace e bt
  end

(* --- labeled metric families --- *)

let valid_metric_name s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false)
       s

let valid_label_name s =
  s <> "le"
  && s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       s

(* Sorted, validated label set plus its canonical rendering (series
   identity within a family). *)
let normalize_labels labels =
  let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) labels in
  let rec check = function
    | (a, _) :: (((b, _) :: _) as rest) ->
      if String.equal a b then invalid_arg (Printf.sprintf "Telemetry: duplicate label %S" a);
      check rest
    | [ _ ] | [] -> ()
  in
  List.iter
    (fun (name, _) ->
      if not (valid_label_name name) then
        invalid_arg (Printf.sprintf "Telemetry: invalid label name %S" name))
    sorted;
  check sorted;
  let buf = Buffer.create 32 in
  List.iter
    (fun (name, value) ->
      Buffer.add_string buf name;
      Buffer.add_char buf '\x00';
      Buffer.add_string buf value;
      Buffer.add_char buf '\x01')
    sorted;
  (sorted, Buffer.contents buf)

let kind_mismatch name have want =
  invalid_arg
    (Printf.sprintf "Telemetry: %s is a %s, not a %s" name (kind_name have) (kind_name want))

(* Declare-or-check; caller holds [registry_mutex]. *)
let declare_locked ?help ?measured kind name =
  if not (valid_metric_name name) then
    invalid_arg (Printf.sprintf "Telemetry: invalid metric name %S" name);
  if String.equal name span_family || String.equal name counter_family then
    invalid_arg (Printf.sprintf "Telemetry: %s is recorded by span/count only" name);
  match Hashtbl.find_opt families name with
  | Some m ->
    if m.kind <> kind then kind_mismatch name m.kind kind;
    Hashtbl.replace families name
      {
        m with
        help = Option.value help ~default:m.help;
        measured = Option.value measured ~default:m.measured;
      }
  | None ->
    Hashtbl.replace families name
      {
        kind;
        help = Option.value help ~default:"";
        measured = Option.value measured ~default:false;
      }

let declare ?help ?measured kind name =
  Mutex.protect registry_mutex (fun () -> declare_locked ?help ?measured kind name)

let check_kind b kind name =
  match Hashtbl.find_opt b.known name with
  | Some k -> if k <> kind then kind_mismatch name k kind
  | None ->
    Mutex.protect registry_mutex (fun () -> declare_locked kind name);
    Hashtbl.replace b.known name kind

let inc ?(labels = []) ?(n = 1) name =
  if !enabled_flag then begin
    let b = buffer () in
    check_kind b Counter name;
    let labels, key = normalize_labels labels in
    add_count b (name, key) labels n
  end

let set ?(labels = []) name v =
  if !enabled_flag then begin
    check_kind (buffer ()) Gauge name;
    let labels, key = normalize_labels labels in
    Mutex.protect registry_mutex (fun () -> Keyed.replace gauges (name, key) (labels, v))
  end

let observe ?(labels = []) name ns =
  if !enabled_flag then begin
    let b = buffer () in
    check_kind b Histogram name;
    let labels, key = normalize_labels labels in
    record_ns (hist_of b (name, key) labels) ns
  end

(* --- snapshots and their views --- *)

module Report = struct
  type span_stat = {
    name : string;
    calls : int;
    total_ns : int64;
    max_ns : int64;
    buckets : int array;
  }

  type value =
    | Counter of int
    | Gauge of float
    | Histogram of { calls : int; total_ns : int64; max_ns : int64; buckets : int array }

  type series = { labels : labels; value : value }

  type family = {
    name : string;
    kind : kind;
    help : string;
    measured : bool;
    series : series list;
  }

  type entry = { family : string; key : string; labels : labels; value : value }

  type t = {
    entries : entry list;  (* sorted by (family, key) *)
    metas : (string * meta) list;  (* sorted by family name *)
    events : (int * event) list;  (* (tid, event), sorted by (ts, tid) *)
    dropped : int;
  }

  let empty = { entries = []; metas = []; events = []; dropped = 0 }

  let spans t =
    List.filter_map
      (fun e ->
        match e.value with
        | Histogram { calls; total_ns; max_ns; buckets }
          when String.equal e.family span_family ->
          Some { name = e.key; calls; total_ns; max_ns; buckets }
        | _ -> None)
      t.entries

  let counters t =
    List.filter_map
      (fun e ->
        match e.value with
        | Counter n when String.equal e.family counter_family -> Some (e.key, n)
        | _ -> None)
      t.entries

  let families t =
    List.filter_map
      (fun (name, (m : meta)) ->
        match List.filter (fun e -> String.equal e.family name) t.entries with
        | [] -> None
        | es ->
          Some
            {
              name;
              kind = m.kind;
              help = m.help;
              measured = m.measured;
              series = List.map (fun e -> { labels = e.labels; value = e.value }) es;
            })
      t.metas

  let compare_entry a b =
    let c = String.compare a.family b.family in
    if c <> 0 then c else String.compare a.key b.key

  (* One kind per family (the declare discipline), so mixed pairs do not
     occur; a gauge in both keeps the larger value so merge commutes. *)
  let combine a b =
    let value =
      match (a.value, b.value) with
      | Counter x, Counter y -> Counter (x + y)
      | Gauge x, Gauge y -> Gauge (Float.max x y)
      | Histogram x, Histogram y ->
        Histogram
          {
            calls = x.calls + y.calls;
            total_ns = Int64.add x.total_ns y.total_ns;
            max_ns = Int64.max x.max_ns y.max_ns;
            buckets = Array.init n_buckets (fun i -> x.buckets.(i) + y.buckets.(i));
          }
      | v, _ -> v
    in
    { a with value }

  (* Merge two sorted lists with a per-key combiner: keyed and
     order-independent, the property every cross-domain view relies on. *)
  let rec merge_sorted compare combine xs ys =
    match (xs, ys) with
    | [], rest | rest, [] -> rest
    | x :: xs', y :: ys' ->
      let c = compare x y in
      if c < 0 then x :: merge_sorted compare combine xs' ys
      else if c > 0 then y :: merge_sorted compare combine xs ys'
      else combine x y :: merge_sorted compare combine xs' ys'

  let event_compare (tid_a, a) (tid_b, b) =
    let c = Int64.compare a.ev_ts b.ev_ts in
    if c <> 0 then c
    else
      let c = Int.compare tid_a tid_b in
      if c <> 0 then c else String.compare a.ev_name b.ev_name

  let merge a b =
    {
      entries = merge_sorted compare_entry combine a.entries b.entries;
      metas =
        merge_sorted (fun (x, _) (y, _) -> String.compare x y) (fun x _ -> x) a.metas b.metas;
      events = List.merge event_compare a.events b.events;
      dropped = a.dropped + b.dropped;
    }

  (* --- view 1: per-phase summary ------------------------------------ *)

  (* The last value of the bucket holding the [p]-quantile, clamped to
     the largest observation: a bucket edge alone can sit up to 2x above
     every recorded duration. *)
  let percentile_ns s ~p =
    let target = max 1 (int_of_float (ceil (p *. float_of_int s.calls))) in
    let rec walk i acc =
      let acc = acc + s.buckets.(i) in
      if acc >= target || i = n_buckets - 1 then i else walk (i + 1) acc
    in
    let _, hi = bucket_bounds (walk 0 0) in
    Int64.min s.max_ns (Int64.pred hi)

  let pp_ns ns =
    let ns = Int64.to_float ns in
    if ns < 1e3 then Printf.sprintf "%.0fns" ns
    else if ns < 1e6 then Printf.sprintf "%.1fus" (ns /. 1e3)
    else if ns < 1e9 then Printf.sprintf "%.1fms" (ns /. 1e6)
    else Printf.sprintf "%.2fs" (ns /. 1e9)

  let summary_table ?(times = true) t =
    let headers =
      if times then [ "phase"; "calls"; "total"; "mean"; "p50"; "p99"; "max" ]
      else [ "phase"; "calls" ]
    in
    let table = Texttable.create headers in
    let spans = spans t and counters = counters t in
    List.iter
      (fun s ->
        let row =
          if times then
            let mean =
              if s.calls = 0 then 0L else Int64.div s.total_ns (Int64.of_int s.calls)
            in
            [
              s.name;
              string_of_int s.calls;
              pp_ns s.total_ns;
              pp_ns mean;
              pp_ns (percentile_ns s ~p:0.50);
              pp_ns (percentile_ns s ~p:0.99);
              pp_ns s.max_ns;
            ]
          else [ s.name; string_of_int s.calls ]
        in
        Texttable.add_row table row)
      spans;
    if spans <> [] && counters <> [] then Texttable.add_separator table;
    List.iter
      (fun (name, n) ->
        let row =
          if times then [ name; string_of_int n; "-"; "-"; "-"; "-"; "-" ]
          else [ name; string_of_int n ]
        in
        Texttable.add_row table row)
      counters;
    table

  (* --- view 2: Chrome trace ----------------------------------------- *)

  let chrome_trace ?config t =
    let tids = List.sort_uniq Int.compare (List.map fst t.events) in
    let meta =
      Json_out.Obj
        [
          ("name", Json_out.Str "process_name");
          ("ph", Json_out.Str "M");
          ("pid", Json_out.Int 1);
          ("tid", Json_out.Int 0);
          ("args", Json_out.Obj [ ("name", Json_out.Str "mcx") ]);
        ]
      :: List.map
           (fun tid ->
             Json_out.Obj
               [
                 ("name", Json_out.Str "thread_name");
                 ("ph", Json_out.Str "M");
                 ("pid", Json_out.Int 1);
                 ("tid", Json_out.Int tid);
                 ( "args",
                   Json_out.Obj
                     [ ("name", Json_out.Str (Printf.sprintf "domain %d" tid)) ] );
               ])
           tids
    in
    let span_events =
      List.map
        (fun (tid, ev) ->
          Json_out.Obj
            [
              ("name", Json_out.Str ev.ev_name);
              ("cat", Json_out.Str "mcx");
              ("ph", Json_out.Str "X");
              ("ts", Json_out.Float (Int64.to_float ev.ev_ts /. 1e3));
              ("dur", Json_out.Float (Int64.to_float ev.ev_dur /. 1e3));
              ("pid", Json_out.Int 1);
              ("tid", Json_out.Int tid);
            ])
        t.events
    in
    Json_out.Obj
      [
        ("traceEvents", Json_out.List (meta @ span_events));
        ("displayTimeUnit", Json_out.Str "ms");
        ( "otherData",
          Json_out.Obj
            ([
               ("schema", Json_out.Str "mcx-trace/1");
               ("dropped_events", Json_out.Int t.dropped);
               ( "counters",
                 Json_out.Obj
                   (List.map (fun (name, n) -> (name, Json_out.Int n)) (counters t)) );
             ]
            @ match config with None -> [] | Some c -> [ ("config", c) ]) );
      ]

  (* --- view 3: OpenMetrics text ------------------------------------- *)

  let escape ~quote s =
    let buf = Buffer.create (String.length s) in
    String.iter
      (function
        | '\\' -> Buffer.add_string buf "\\\\"
        | '"' when quote -> Buffer.add_string buf "\\\""
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  (* [{k="v",...}] with [extra] appended; an empty label set renders as
     nothing (plain [name value] sample). *)
  let render_labels ?extra labels =
    let pairs =
      List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape ~quote:true v)) labels
      @ match extra with Some kv -> [ kv ] | None -> []
    in
    match pairs with [] -> "" | pairs -> "{" ^ String.concat "," pairs ^ "}"

  let sample buf name labels value =
    Buffer.add_string buf name;
    Buffer.add_string buf labels;
    Buffer.add_char buf ' ';
    Buffer.add_string buf value;
    Buffer.add_char buf '\n'

  let add_histogram_text buf ~times name labels ~calls ~total_ns ~buckets =
    if times then begin
      (* Cumulative buckets up to the last occupied one, then +Inf. *)
      let last = ref (-1) in
      Array.iteri (fun i c -> if c > 0 then last := i) buckets;
      let acc = ref 0 in
      for i = 0 to !last do
        acc := !acc + buckets.(i);
        let _, hi = bucket_bounds i in
        sample buf (name ^ "_bucket")
          (render_labels ~extra:(Printf.sprintf "le=\"%s\"" (Int64.to_string hi)) labels)
          (string_of_int !acc)
      done;
      sample buf (name ^ "_bucket")
        (render_labels ~extra:"le=\"+Inf\"" labels)
        (string_of_int calls);
      sample buf (name ^ "_sum") (render_labels labels) (Int64.to_string total_ns)
    end;
    sample buf (name ^ "_count") (render_labels labels) (string_of_int calls)

  let to_openmetrics ?(times = true) t =
    let buf = Buffer.create 4096 in
    List.iter
      (fun f ->
        if times || not f.measured then begin
          if f.help <> "" then
            Buffer.add_string buf
              (Printf.sprintf "# HELP %s %s\n" f.name (escape ~quote:false f.help));
          Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" f.name (kind_name f.kind));
          List.iter
            (fun (s : series) ->
              match s.value with
              | Counter n -> sample buf f.name (render_labels s.labels) (string_of_int n)
              | Gauge v -> sample buf f.name (render_labels s.labels) (Json_out.float_repr v)
              | Histogram { calls; total_ns; buckets; _ } ->
                add_histogram_text buf ~times f.name s.labels ~calls ~total_ns ~buckets)
            f.series
        end)
      (families t);
    Buffer.add_string buf "# EOF\n";
    Buffer.contents buf

  (* --- view 4: mcx-metrics/1 JSON ----------------------------------- *)

  let series_json ~times (s : series) =
    let base =
      [ ("labels", Json_out.Obj (List.map (fun (k, v) -> (k, Json_out.Str v)) s.labels)) ]
    in
    match s.value with
    | Counter n -> Json_out.Obj (base @ [ ("value", Json_out.Int n) ])
    | Gauge v -> Json_out.Obj (base @ [ ("value", Json_out.Float v) ])
    | Histogram { calls; total_ns; buckets; _ } ->
      let deterministic = base @ [ ("count", Json_out.Int calls) ] in
      if not times then Json_out.Obj deterministic
      else
        let sparse =
          Array.to_list buckets
          |> List.mapi (fun i c -> (i, c))
          |> List.filter (fun (_, c) -> c > 0)
          |> List.map (fun (i, c) -> Json_out.List [ Json_out.Int i; Json_out.Int c ])
        in
        Json_out.Obj
          (deterministic
          @ [
              ("sum_ns", Json_out.Int (Int64.to_int total_ns));
              ("buckets", Json_out.List sparse);
            ])

  let to_json ?(times = true) ?config t =
    let family_json f =
      Json_out.Obj
        ([ ("name", Json_out.Str f.name); ("type", Json_out.Str (kind_name f.kind)) ]
        @ (if f.help = "" then [] else [ ("help", Json_out.Str f.help) ])
        @ [ ("series", Json_out.List (List.map (series_json ~times) f.series)) ])
    in
    let kept = List.filter (fun f -> times || not f.measured) (families t) in
    Json_out.Obj
      ([ ("schema", Json_out.Str "mcx-metrics/1") ]
      @ (match config with None -> [] | Some c -> [ ("config", c) ])
      @ [ ("metrics", Json_out.List (List.map family_json kept)) ])
end

let snapshot () =
  let buffers, metas, gauge_entries =
    Mutex.protect registry_mutex (fun () ->
        ( !registry,
          Hashtbl.fold (fun name m acc -> (name, m) :: acc) families [],
          Keyed.fold
            (fun (family, key) (labels, v) acc ->
              { Report.family; key; labels; value = Report.Gauge v } :: acc)
            gauges [] ))
  in
  let of_buffer b =
    let entries =
      Keyed.fold
        (fun (family, key) (labels, (h : hist)) acc ->
          {
            Report.family;
            key;
            labels;
            value =
              Report.Histogram
                {
                  calls = h.calls;
                  total_ns = h.total_ns;
                  max_ns = h.max_ns;
                  buckets = Array.copy h.buckets;
                };
          }
          :: acc)
        b.hists []
    in
    let entries =
      Keyed.fold
        (fun (family, key) (labels, r) acc ->
          { Report.family; key; labels; value = Report.Counter !r } :: acc)
        b.counters entries
    in
    let events =
      let arr = Array.init b.n_events (fun i -> (b.tid, b.events.(i))) in
      Array.sort Report.event_compare arr;
      Array.to_list arr
    in
    {
      Report.empty with
      entries = List.sort Report.compare_entry entries;
      events;
      dropped = b.dropped;
    }
  in
  List.fold_left
    (fun acc b -> Report.merge acc (of_buffer b))
    {
      Report.empty with
      entries = List.sort Report.compare_entry gauge_entries;
      metas = List.sort (fun (a, _) (b, _) -> String.compare a b) metas;
    }
    buffers

(* --- driver hooks --- *)

let times_from_env () = Config.trace_times ()

let install ?(out = stderr) ~trace () =
  enable ~events:true ();
  at_exit (fun () ->
      if !enabled_flag then begin
        let report = snapshot () in
        (* The trace carries timestamps anyway, so its embedded config
           snapshot is the full one, operational knobs included. *)
        Json_out.write_file trace
          (Report.chrome_trace ~config:(Config.snapshot ()) report);
        let times = times_from_env () in
        Printf.fprintf out "[mcx] telemetry: chrome trace written to %s\n" trace;
        output_string out (Texttable.render (Report.summary_table ~times report));
        flush out
      end)

let install_from_env () =
  match Config.trace () with
  | Some path -> install ~trace:path ()
  | None -> ()
