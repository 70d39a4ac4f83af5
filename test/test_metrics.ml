(* Labeled metric families of the Telemetry store: name/label
   validation, kind discipline, series identity under label reordering,
   gauge last-write-wins, histogram geometry, the keyed commutative
   merge (bit-identical exporter output at any job count), both
   exporters (a hand-rolled OpenMetrics line-grammar validator and the
   mcx-metrics/1 JSON shape), the deterministic [~times:false]
   projection, spans and counters appearing in the exports beside the
   labeled families, and the summary's bucket percentile estimator. *)

open Mcx_util

(* Every test starts from a clean, enabled store. The whole binary is
   single-threaded between Pool fan-outs, so reset is safe here. *)
let fresh () =
  Telemetry.reset ();
  Telemetry.enable ()

let find_family name snap =
  List.find_opt
    (fun (f : Telemetry.Report.family) -> f.name = name)
    (Telemetry.Report.families snap)

let get_family name snap =
  match find_family name snap with
  | Some f -> f
  | None -> Alcotest.failf "family %s missing from snapshot" name

let series_value (f : Telemetry.Report.family) labels =
  let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) labels in
  match
    List.find_opt (fun (s : Telemetry.Report.series) -> s.labels = sorted) f.series
  with
  | Some s -> s.value
  | None ->
    Alcotest.failf "series %s%s missing" f.name
      (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels))

let counter_value f labels =
  match series_value f labels with
  | Telemetry.Report.Counter n -> n
  | _ -> Alcotest.fail "expected a counter series"

(* --- validation ------------------------------------------------------- *)

let test_name_validation () =
  List.iter
    (fun (name, ok) ->
      Alcotest.(check bool) ("metric name " ^ name) ok (Telemetry.valid_metric_name name))
    [
      ("mcx_serve_requests_total", true);
      ("a:b:c", true);
      ("_leading", true);
      ("", false);
      ("9starts_with_digit", false);
      ("has-dash", false);
      ("has space", false);
    ];
  List.iter
    (fun (name, ok) ->
      Alcotest.(check bool) ("label name " ^ name) ok (Telemetry.valid_label_name name))
    [
      ("status", true);
      ("_ok", true);
      ("le", false);
      ("", false);
      ("9x", false);
      ("with:colon", false);
    ]

let expect_invalid_arg what f =
  Alcotest.(check bool) what true
    (match f () with exception Invalid_argument _ -> true | _ -> false)

let test_declare_rejects () =
  fresh ();
  expect_invalid_arg "bad metric name" (fun () ->
      Telemetry.declare Telemetry.Counter "not a name");
  Telemetry.declare Telemetry.Counter "mcx_test_total";
  expect_invalid_arg "kind flip on redeclare" (fun () ->
      Telemetry.declare Telemetry.Gauge "mcx_test_total");
  (* auto-declaration pins the kind too *)
  Telemetry.inc "mcx_test_auto";
  expect_invalid_arg "kind mismatch after auto-declare" (fun () ->
      Telemetry.set "mcx_test_auto" 1.0);
  (* the span/counter families are recorded by span/count only *)
  expect_invalid_arg "reserved span family" (fun () ->
      Telemetry.observe ~labels:[ ("span", "x") ] "mcx_telemetry_span_ns" 1L);
  expect_invalid_arg "reserved counter family" (fun () ->
      Telemetry.declare Telemetry.Counter "mcx_telemetry_counter")

let test_recording_rejects () =
  fresh ();
  expect_invalid_arg "bad label name" (fun () ->
      Telemetry.inc ~labels:[ ("le", "1") ] "mcx_test_total");
  expect_invalid_arg "duplicate label" (fun () ->
      Telemetry.inc ~labels:[ ("a", "1"); ("a", "2") ] "mcx_test_total");
  Telemetry.declare Telemetry.Histogram "mcx_test_ns";
  expect_invalid_arg "inc into a histogram" (fun () -> Telemetry.inc "mcx_test_ns")

(* --- recording semantics ---------------------------------------------- *)

let test_label_order_is_identity () =
  fresh ();
  Telemetry.inc ~labels:[ ("a", "1"); ("b", "2") ] "mcx_test_total";
  Telemetry.inc ~labels:[ ("b", "2"); ("a", "1") ] ~n:2 "mcx_test_total";
  let f = get_family "mcx_test_total" (Telemetry.snapshot ()) in
  Alcotest.(check int) "one series" 1 (List.length f.series);
  Alcotest.(check int) "merged count" 3
    (counter_value f [ ("a", "1"); ("b", "2") ])

let test_gauge_last_write_wins () =
  fresh ();
  Telemetry.set "mcx_test_gauge" 1.5;
  Telemetry.set "mcx_test_gauge" 4.25;
  let f = get_family "mcx_test_gauge" (Telemetry.snapshot ()) in
  (match series_value f [] with
  | Telemetry.Report.Gauge v -> Alcotest.(check (float 0.)) "last value" 4.25 v
  | _ -> Alcotest.fail "expected a gauge")

let test_histogram_geometry () =
  fresh ();
  (* 1ns -> bucket 0; 1000ns -> bucket 9 ([512,1024)); negative clamps. *)
  Telemetry.observe "mcx_test_ns" 1L;
  Telemetry.observe "mcx_test_ns" 1000L;
  Telemetry.observe "mcx_test_ns" (-5L);
  let f = get_family "mcx_test_ns" (Telemetry.snapshot ()) in
  match series_value f [] with
  | Telemetry.Report.Histogram { calls = count; total_ns = sum_ns; buckets; _ } ->
    Alcotest.(check int) "count" 3 count;
    Alcotest.(check int64) "sum clamps negatives" 1001L sum_ns;
    Alcotest.(check int) "bucket 0" 2 buckets.(0);
    Alcotest.(check int) "bucket of 1000ns" 1 buckets.(Telemetry.bucket_of_ns 1000L)
  | _ -> Alcotest.fail "expected a histogram"

let test_disabled_is_inert () =
  Telemetry.reset ();
  Telemetry.disable ();
  Telemetry.inc "mcx_test_total";
  Telemetry.set "mcx_test_gauge" 1.0;
  Telemetry.observe "mcx_test_ns" 5L;
  Telemetry.count "t.off";
  Alcotest.(check int) "nothing recorded" 0
    (List.length (Telemetry.Report.families (Telemetry.snapshot ())))

(* --- determinism across job counts ------------------------------------ *)

(* Deterministic per-index work recorded from inside Pool workers: the
   keyed merge must make the exported deterministic projection
   byte-identical whatever the domain count. *)
let record_from_pool ~jobs =
  fresh ();
  Telemetry.declare ~help:"test rows" Telemetry.Counter "mcx_test_rows_total";
  Telemetry.declare Telemetry.Histogram "mcx_test_trial_ns";
  let pool = Pool.create ~jobs () in
  let _ =
    Pool.map pool 40 (fun i ->
        let bucket = if i mod 3 = 0 then "small" else "large" in
        Telemetry.inc ~labels:[ ("size", bucket) ] "mcx_test_rows_total";
        Telemetry.observe "mcx_test_trial_ns" (Int64.of_int ((i * 37) mod 5000));
        i)
  in
  Telemetry.snapshot ()

let test_jobs_identical_projection () =
  let s1 = record_from_pool ~jobs:1 in
  let s4 = record_from_pool ~jobs:4 in
  Alcotest.(check string) "OpenMetrics bytes agree"
    (Telemetry.Report.to_openmetrics ~times:false s1)
    (Telemetry.Report.to_openmetrics ~times:false s4);
  Alcotest.(check string) "mcx-metrics/1 bytes agree"
    (Json_out.to_string (Telemetry.Report.to_json ~times:false s1))
    (Json_out.to_string (Telemetry.Report.to_json ~times:false s4));
  (* The full (timed) export also agrees here because the observed
     durations are a function of the index alone. *)
  Alcotest.(check string) "timed bytes agree too"
    (Telemetry.Report.to_openmetrics s1)
    (Telemetry.Report.to_openmetrics s4)

(* --- OpenMetrics text grammar ----------------------------------------- *)

(* A deliberately small validator for the exposition subset we emit:
   every line is [# HELP <name> <text>], [# TYPE <name> <kind>],
   [# EOF], or [<name>{labels} <value>] with a quoted-and-escaped label
   grammar; [# EOF] is the final line. *)
let check_openmetrics text =
  let is_name s =
    s <> ""
    && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
    && String.for_all
         (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false)
         s
  in
  let check_sample line =
    let name_end =
      let rec go i =
        if i < String.length line then
          match line.[i] with
          | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> go (i + 1)
          | _ -> i
        else i
      in
      go 0
    in
    let name = String.sub line 0 name_end in
    if not (is_name name) then Alcotest.failf "bad sample name in %S" line;
    let rest = String.sub line name_end (String.length line - name_end) in
    let value_part =
      if rest <> "" && rest.[0] = '{' then begin
        match String.index_opt rest '}' with
        | None -> Alcotest.failf "unterminated label set in %S" line
        | Some close ->
          let labels = String.sub rest 1 (close - 1) in
          if labels = "" then Alcotest.failf "empty label braces in %S" line;
          List.iter
            (fun kv ->
              match String.index_opt kv '=' with
              | None -> Alcotest.failf "label without '=' in %S" line
              | Some eq ->
                let k = String.sub kv 0 eq in
                let v = String.sub kv (eq + 1) (String.length kv - eq - 1) in
                if not (is_name k) then Alcotest.failf "bad label name %S in %S" k line;
                if String.length v < 2 || v.[0] <> '"' || v.[String.length v - 1] <> '"'
                then Alcotest.failf "unquoted label value %S in %S" v line)
            (String.split_on_char ',' labels);
          String.sub rest (close + 1) (String.length rest - close - 1)
      end
      else rest
    in
    match String.split_on_char ' ' value_part with
    | [ ""; value ] ->
      if
        value <> "+Inf"
        && Float.is_nan (try float_of_string value with Failure _ -> Float.nan)
      then Alcotest.failf "unparseable sample value %S in %S" value line
    | _ -> Alcotest.failf "expected one space then a value in %S" line
  in
  let lines = String.split_on_char '\n' text in
  (match List.rev lines with
  | "" :: "# EOF" :: _ -> ()
  | _ -> Alcotest.fail "exposition must end with '# EOF\\n'");
  List.iter
    (fun line ->
      if line = "" || line = "# EOF" then ()
      else if String.length line > 7 && String.sub line 0 7 = "# HELP " then begin
        match String.index_from_opt line 7 ' ' with
        | Some i -> if not (is_name (String.sub line 7 (i - 7))) then
            Alcotest.failf "bad HELP name in %S" line
        | None -> Alcotest.failf "HELP without text in %S" line
      end
      else if String.length line > 7 && String.sub line 0 7 = "# TYPE " then begin
        match String.split_on_char ' ' line with
        | [ "#"; "TYPE"; name; kind ] ->
          if not (is_name name) then Alcotest.failf "bad TYPE name in %S" line;
          if not (List.mem kind [ "counter"; "gauge"; "histogram" ]) then
            Alcotest.failf "unknown TYPE kind in %S" line
        | _ -> Alcotest.failf "malformed TYPE line %S" line
      end
      else check_sample line)
    lines

let populated_snapshot () =
  fresh ();
  Telemetry.declare ~help:"requests by status" Telemetry.Counter "mcx_test_requests_total";
  Telemetry.declare ~help:"stage latency" Telemetry.Histogram "mcx_test_stage_ns";
  Telemetry.declare ~measured:true Telemetry.Gauge "mcx_test_jobs";
  Telemetry.inc ~labels:[ ("status", "ok") ] ~n:3 "mcx_test_requests_total";
  Telemetry.inc ~labels:[ ("status", "error") ] "mcx_test_requests_total";
  Telemetry.set "mcx_test_jobs" 4.0;
  Telemetry.observe ~labels:[ ("stage", "parse") ] "mcx_test_stage_ns" 900L;
  Telemetry.observe ~labels:[ ("stage", "parse") ] "mcx_test_stage_ns" 64_000L;
  Telemetry.snapshot ()

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_openmetrics_grammar () =
  let snap = populated_snapshot () in
  let timed = Telemetry.Report.to_openmetrics snap in
  check_openmetrics timed;
  check_openmetrics (Telemetry.Report.to_openmetrics ~times:false snap);
  Alcotest.(check bool) "help line" true
    (contains timed "# HELP mcx_test_requests_total requests by status");
  Alcotest.(check bool) "series sample" true
    (contains timed "mcx_test_requests_total{status=\"ok\"} 3");
  Alcotest.(check bool) "+Inf bucket" true (contains timed "le=\"+Inf\"");
  Alcotest.(check bool) "histogram count" true
    (contains timed "mcx_test_stage_ns_count{stage=\"parse\"} 2")

let test_projection_drops_measurements () =
  let snap = populated_snapshot () in
  let det = Telemetry.Report.to_openmetrics ~times:false snap in
  Alcotest.(check bool) "measured gauge dropped" false (contains det "mcx_test_jobs");
  Alcotest.(check bool) "no buckets" false (contains det "_bucket");
  Alcotest.(check bool) "no sum" false (contains det "mcx_test_stage_ns_sum");
  Alcotest.(check bool) "count survives" true
    (contains det "mcx_test_stage_ns_count{stage=\"parse\"} 2");
  Alcotest.(check bool) "timed export keeps the gauge" true
    (contains (Telemetry.Report.to_openmetrics snap) "mcx_test_jobs 4")

(* --- mcx-metrics/1 JSON shape ----------------------------------------- *)

let test_json_shape () =
  let snap = populated_snapshot () in
  let reparse times =
    match Json_out.of_string (Json_out.to_string (Telemetry.Report.to_json ~times snap)) with
    | Ok json -> json
    | Error e -> Alcotest.failf "exporter emitted unparseable JSON: %s" e
  in
  let json = reparse true in
  let str path = Option.bind path Json_out.to_string_opt in
  Alcotest.(check (option string)) "schema" (Some "mcx-metrics/1")
    (str (Json_out.member "schema" json));
  let metrics =
    match Option.bind (Json_out.member "metrics" json) Json_out.to_list_opt with
    | Some l -> l
    | None -> Alcotest.fail "no metrics array"
  in
  let family name =
    match
      List.find_opt (fun f -> str (Json_out.member "name" f) = Some name) metrics
    with
    | Some f -> f
    | None -> Alcotest.failf "family %s missing from JSON" name
  in
  Alcotest.(check (option string)) "histogram type" (Some "histogram")
    (str (Json_out.member "type" (family "mcx_test_stage_ns")));
  let series =
    match
      Option.bind (Json_out.member "series" (family "mcx_test_stage_ns")) Json_out.to_list_opt
    with
    | Some [ s ] -> s
    | _ -> Alcotest.fail "expected one histogram series"
  in
  Alcotest.(check (option (float 0.))) "count" (Some 2.)
    (Option.bind (Json_out.member "count" series) Json_out.to_float_opt);
  Alcotest.(check bool) "sparse buckets present when timed" true
    (Option.is_some (Json_out.member "buckets" series));
  (* deterministic projection: no sum/buckets, no measured family *)
  let det = reparse false in
  let det_metrics =
    Option.value ~default:[]
      (Option.bind (Json_out.member "metrics" det) Json_out.to_list_opt)
  in
  Alcotest.(check bool) "measured family dropped" false
    (List.exists (fun f -> str (Json_out.member "name" f) = Some "mcx_test_jobs") det_metrics);
  let det_series =
    List.find_map
      (fun f ->
        if str (Json_out.member "name" f) = Some "mcx_test_stage_ns" then
          Option.bind (Json_out.member "series" f) Json_out.to_list_opt
        else None)
      det_metrics
  in
  match det_series with
  | Some [ s ] ->
    Alcotest.(check bool) "no sum_ns" true (Json_out.member "sum_ns" s = None);
    Alcotest.(check bool) "no buckets" true (Json_out.member "buckets" s = None)
  | _ -> Alcotest.fail "expected the histogram series in the projection"

(* --- bridges ----------------------------------------------------------- *)

let test_lru_bridge () =
  fresh ();
  let cache = Lru.create ~name:"serve.cache" ~capacity:2 () in
  Lru.put cache "a" 1;
  Lru.put cache "b" 2;
  ignore (Lru.find cache "a");
  ignore (Lru.find cache "zzz");
  Lru.put cache "c" 3 (* evicts b *);
  Lru.record_metrics cache;
  let snap = Telemetry.snapshot () in
  let count name = counter_value (get_family name snap) [ ("cache", "serve.cache") ] in
  Alcotest.(check int) "hits" 1 (count "mcx_cache_hits_total");
  Alcotest.(check int) "misses" 1 (count "mcx_cache_misses_total");
  Alcotest.(check int) "evictions" 1 (count "mcx_cache_evictions_total")

(* Spans and unlabeled counters are series of the same store, so both
   exporters show them beside the labeled families with no copy step. *)
let test_spans_and_counters_exported () =
  fresh ();
  Telemetry.count ~n:5 "trials";
  Telemetry.observe_ns "map.trial" 1234L;
  Telemetry.observe_ns "map.trial" 99L;
  Telemetry.inc "mcx_test_total";
  let snap = Telemetry.snapshot () in
  Alcotest.(check int) "counter exported" 5
    (counter_value (get_family "mcx_telemetry_counter" snap) [ ("name", "trials") ]);
  (match series_value (get_family "mcx_telemetry_span_ns" snap) [ ("span", "map.trial") ] with
  | Telemetry.Report.Histogram { calls; total_ns; _ } ->
    Alcotest.(check int) "span calls exported" 2 calls;
    Alcotest.(check int64) "span total exported" 1333L total_ns
  | _ -> Alcotest.fail "expected a histogram series");
  let text = Telemetry.Report.to_openmetrics snap in
  check_openmetrics text;
  List.iter
    (fun line -> Alcotest.(check bool) line true (contains text line))
    [
      "# HELP mcx_telemetry_counter telemetry counter totals (see MCX_TRACE)\n";
      "mcx_telemetry_counter{name=\"trials\"} 5\n";
      "mcx_telemetry_span_ns_sum{span=\"map.trial\"} 1333\n";
      "mcx_telemetry_span_ns_count{span=\"map.trial\"} 2\n";
      "mcx_test_total 1\n";
    ];
  let json = Json_out.to_string (Telemetry.Report.to_json snap) in
  Alcotest.(check bool) "json counter family" true
    (contains json
       {|{"name":"mcx_telemetry_counter","type":"counter","help":"telemetry counter totals (see MCX_TRACE)","series":[{"labels":{"name":"trials"},"value":5}]}|});
  Alcotest.(check bool) "json span family" true
    (contains json {|"series":[{"labels":{"span":"map.trial"},"count":2,"sum_ns":1333|})

(* --- the summary's percentile estimator --------------------------------- *)

let summary_percentiles snap name =
  Texttable.render (Telemetry.Report.summary_table snap)
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         match List.map String.trim (String.split_on_char '|' line) with
         | [ ""; n; _calls; _total; _mean; p50; p99; max; "" ] when n = name ->
           Some (p50, p99, max)
         | _ -> None)
  |> function
  | Some cells -> cells
  | None -> Alcotest.failf "no summary row for %s" name

let test_percentile_estimator () =
  (* 90 observations in [512,1024), 9 in [65536,131072), 1 at 1 ms: the
     percentiles read the last value of the bucket holding the quantile,
     and the 1 ms max keeps the p99 bucket edge (131071) unclamped *)
  let samples =
    List.init 90 (fun _ -> 1000L) @ List.init 9 (fun _ -> 100_000L) @ [ 1_000_000L ]
  in
  fresh ();
  List.iter (Telemetry.observe_ns "p.split") samples;
  let whole = Telemetry.snapshot () in
  (match Telemetry.Report.spans whole with
  | [ s ] ->
    Alcotest.(check int) "small bucket" 90 s.buckets.(Telemetry.bucket_of_ns 1000L);
    Alcotest.(check int) "large bucket" 9 s.buckets.(Telemetry.bucket_of_ns 100_000L)
  | _ -> Alcotest.fail "expected one span");
  Alcotest.(check (triple string string string)) "p50/p99/max at the bucket edges"
    ("1.0us", "131.1us", "1.0ms")
    (summary_percentiles whole "p.split");
  (* the estimator reads merged buckets: two halves give the same row *)
  let first, second = List.partition (fun ns -> ns < 100_000L) samples in
  let half xs =
    fresh ();
    List.iter (Telemetry.observe_ns "p.split") xs;
    Telemetry.snapshot ()
  in
  let a = half first and b = half second in
  Alcotest.(check (triple string string string)) "merged halves agree"
    (summary_percentiles whole "p.split")
    (summary_percentiles (Telemetry.Report.merge a b) "p.split")

let () =
  let cleanup () =
    Telemetry.reset ();
    Telemetry.disable ()
  in
  Fun.protect ~finally:cleanup (fun () ->
      Alcotest.run "metrics"
        [
          ( "validation",
            [
              Alcotest.test_case "name grammars" `Quick test_name_validation;
              Alcotest.test_case "declare rejects" `Quick test_declare_rejects;
              Alcotest.test_case "recording rejects" `Quick test_recording_rejects;
            ] );
          ( "recording",
            [
              Alcotest.test_case "label order is identity" `Quick
                test_label_order_is_identity;
              Alcotest.test_case "gauge last write wins" `Quick test_gauge_last_write_wins;
              Alcotest.test_case "histogram geometry" `Quick test_histogram_geometry;
              Alcotest.test_case "disabled is inert" `Quick test_disabled_is_inert;
            ] );
          ( "determinism",
            [
              Alcotest.test_case "jobs 1 = jobs 4 exports" `Quick
                test_jobs_identical_projection;
            ] );
          ( "exporters",
            [
              Alcotest.test_case "OpenMetrics grammar" `Quick test_openmetrics_grammar;
              Alcotest.test_case "times projection" `Quick
                test_projection_drops_measurements;
              Alcotest.test_case "mcx-metrics/1 shape" `Quick test_json_shape;
            ] );
          ( "bridges",
            [
              Alcotest.test_case "lru cache" `Quick test_lru_bridge;
              Alcotest.test_case "spans/counters in both exports" `Quick
                test_spans_and_counters_exported;
            ] );
          ( "percentiles",
            [ Alcotest.test_case "bucket estimator" `Quick test_percentile_estimator ] );
        ])
