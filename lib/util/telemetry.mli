(** The process's one observability store: nested spans, named counters
    and labeled metric families (counters, gauges, duration histograms),
    recorded into one set of per-domain buffers and rendered from one
    {!snapshot} by four views — the per-phase stderr summary, the Chrome
    trace ([mcx-trace/1]), OpenMetrics text and [mcx-metrics/1] JSON.

    {2 Recording model}

    Every domain records into its own buffer (domain-local storage), so
    instrumented code inside {!Pool} workers never contends on a lock.
    Every value is a series keyed by (family, labels) and merges by
    commutative sums, so a merged snapshot is independent of which domain
    executed which trial: with the deterministic per-trial work of the
    experiment harnesses, call counts, counter values and histogram
    observation counts are bit-identical at any [MCX_JOBS] value
    (durations are measurements and are not). Gauges are current-value
    cells, not sums: they live in one mutex-guarded table and take the
    last value set.

    Spans and {!observe_ns} durations are the series of the histogram
    family [mcx_telemetry_span_ns], labeled [span=<name>]; {!count}
    counters are the series of the counter family
    [mcx_telemetry_counter], labeled [name=<name>]. The exporters show
    them under those names beside the labeled families.

    {2 Cost when disabled}

    Every recording entry point first reads one [bool ref]; when the
    store is off it returns immediately — a load and a branch, no
    allocation. [span name f] calls [f] directly. The kernel microbench
    ([bench/kernels.ml]) is the regression guard for this path.

    {2 Gating and the [times] projection}

    Nothing records until {!enable} (or {!install} /
    {!install_from_env}, which the drivers call). Setting
    [MCX_TRACE=<path>] (or [memx --trace <path>]) enables collection,
    writes a Chrome trace-event JSON to [<path>] at exit (loadable in
    [about://tracing] / {{:https://ui.perfetto.dev}Perfetto}) and prints
    the per-phase summary to stderr — stdout stays byte-comparable.
    [MCX_TRACE_TIMES=0] ({!times_from_env}) selects the deterministic
    projection of every view: the summary keeps only name and calls, and
    the exporters keep histogram observation counts but drop sums and
    buckets and omit families declared [~measured:true]. Under that
    projection the rendered bytes are identical at any [MCX_JOBS]. *)

val enabled : unit -> bool

val enable : ?events:bool -> unit -> unit
(** Start collecting. [events] additionally records one trace event per
    closed span (needed for the Chrome export; default [false]). Resets
    the trace epoch to now. *)

val disable : unit -> unit
(** Stop collecting; recorded data stays until {!reset}. *)

val reset : unit -> unit
(** Drop all recorded data in every domain buffer, every gauge and every
    family declaration. Only call while no {!Pool} batch is in flight. *)

(** {2 Spans and counters} *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] times [f ()] between two monotonic-clock readings and
    records the duration under [name] (count, total, max, log2 histogram
    bucket, and a trace event when events are on). Spans nest; on an
    exception the open frame is closed and the exception re-raised. *)

val begin_span : string -> unit
val end_span : string -> unit
(** Manual span bracketing for code where a higher-order wrapper does not
    fit. [end_span name] closes the innermost open span, which must be
    [name]. @raise Invalid_argument when no span is open or the innermost
    open span has a different name (unbalanced close). *)

val count : ?n:int -> string -> unit
(** Add [n] (default 1) to the named counter. *)

val observe_ns : string -> int64 -> unit
(** Record one duration (nanoseconds) under [name] without the
    span/trace-event machinery — same aggregate as a span of that
    duration. Negative durations clamp to 0. *)

(** {2 Labeled metric families}

    [labels] defaults to the empty set; label order is irrelevant
    (series identity uses the name-sorted rendering). Recording into an
    undeclared family declares it with no help and [measured = false].
    @raise Invalid_argument on an invalid family or label name, a
    duplicate label, a kind mismatch with the family's declaration, or a
    family name reserved for spans and counters. *)

type kind = Counter | Gauge | Histogram

val valid_metric_name : string -> bool
(** [[a-zA-Z_:][a-zA-Z0-9_:]*] — the Prometheus metric-name grammar. *)

val valid_label_name : string -> bool
(** [[a-zA-Z_][a-zA-Z0-9_]*]; the reserved [le] label is also rejected
    (the histogram exporter owns it). *)

val declare : ?help:string -> ?measured:bool -> kind -> string -> unit
(** Register family metadata: kind, OpenMetrics [# HELP] text, and
    whether the family is a measurement to leave out of the
    deterministic projection. A repeat [declare] refreshes
    help/measured. *)

val inc : ?labels:(string * string) list -> ?n:int -> string -> unit
(** Add [n] (default 1) to a counter series. *)

val set : ?labels:(string * string) list -> string -> float -> unit
(** Set a gauge series to a value (last write wins across the process). *)

val observe : ?labels:(string * string) list -> string -> int64 -> unit
(** Record one duration (nanoseconds) into a histogram series. Negative
    durations clamp to 0. *)

(** {2 Histogram geometry} (pure; exposed for tests) *)

val n_buckets : int
(** 64: bucket [i >= 1] holds durations in [[2{^i}, 2{^i+1}) ns]; bucket
    0 holds [[0, 2) ns]. *)

val bucket_of_ns : int64 -> int

val bucket_bounds : int -> int64 * int64
(** [(lo, hi)] with [lo] inclusive, [hi] exclusive ([Int64.max_int] for
    the last bucket). @raise Invalid_argument out of range. *)

(** {2 Snapshots and views} *)

module Report : sig
  type span_stat = {
    name : string;
    calls : int;
    total_ns : int64;
    max_ns : int64;
    buckets : int array;  (** length {!n_buckets} *)
  }

  type value =
    | Counter of int
    | Gauge of float
    | Histogram of { calls : int; total_ns : int64; max_ns : int64; buckets : int array }

  type series = { labels : (string * string) list; value : value }
  (** [labels] sorted by label name. *)

  type family = {
    name : string;
    kind : kind;
    help : string;
    measured : bool;
    series : series list;  (** sorted by rendered label set *)
  }

  type t

  val spans : t -> span_stat list
  (** Sorted by name. *)

  val counters : t -> (string * int) list
  (** Sorted by name. *)

  val families : t -> family list
  (** Every family with at least one series, sorted by name — the two
      span/counter families included. *)

  val merge : t -> t -> t
  (** Keyed, order-independent: [merge a b] and [merge b a] render the
      same views. A gauge present in both keeps the larger value. *)

  val summary_table : ?times:bool -> t -> Texttable.t
  (** Per-phase summary: one row per span (calls, and with
      [times = true], total/mean/p50/p99/max), then a separator and one
      row per counter. Percentiles are read from the log2 buckets and
      clamped to the span's max, so neither exceeds it. With
      [times = false] (the deterministic projection) only name and
      calls/count columns are rendered. *)

  val chrome_trace : ?config:Json_out.t -> t -> Json_out.t
  (** Chrome trace-event JSON ([traceEvents] of ["ph": "X"] complete
      events, microsecond timestamps relative to {!enable}, one [tid]
      per recording domain, plus thread-name metadata; counter totals
      ride in [otherData]). [?config] (an [mcx-config/1] snapshot, see
      {!Config.snapshot}) is appended to [otherData] when given —
      {!install} passes the full snapshot so a trace records the knob
      state that produced it. Schema documented in EXPERIMENTS.md. *)

  val to_openmetrics : ?times:bool -> t -> string
  (** Prometheus/OpenMetrics text exposition of {!families}: [# HELP]
      (when non-empty) and [# TYPE] per family, one sample line per
      series, ending with [# EOF]. Histogram series render cumulative
      [_bucket] lines ([le] = the bucket's exclusive ns upper bound,
      last ["+Inf"]), then [_sum] and [_count]; trailing all-zero
      buckets are elided. With [times = false] only the [_count] line of
      a histogram is emitted and [measured] families are dropped. *)

  val to_json : ?times:bool -> ?config:Json_out.t -> t -> Json_out.t
  (** The [mcx-metrics/1] document of {!families} (schema in
      EXPERIMENTS.md). Histogram buckets are sparse [[index, count]]
      pairs; with [times = false], histogram [sum_ns]/[buckets] and
      [measured] families are omitted. [?config] (an [mcx-config/1]
      snapshot) is emitted as a [config] member after [schema] —
      callers on the deterministic projection should pass
      {!Config.snapshot}[ ~semantic_only:true ()] so the document stays
      byte-identical across job counts. *)
end

val snapshot : unit -> Report.t
(** Merge every domain buffer and the gauge table into one report. Only
    call while no {!Pool} batch is in flight (drivers call it at exit). *)

(** {2 Driver hooks} *)

val install : ?out:out_channel -> trace:string -> unit -> unit
(** Enable with events and register an exit hook that writes the Chrome
    trace to [trace] and prints the summary table to [out] (default
    stderr, so stdout stays byte-comparable). Honors [MCX_TRACE_TIMES=0]
    for the summary. *)

val times_from_env : unit -> bool
(** [false] iff [MCX_TRACE_TIMES] parses false ({!Config.trace_times}):
    the process-wide "render only the deterministic projection" switch
    shared by every view of this store and the serving access log. *)

val install_from_env : unit -> unit
(** [install] from [MCX_TRACE] ({!Config.trace}) when set and
    non-empty; otherwise do nothing (the store stays off at a single
    branch per record call). *)
