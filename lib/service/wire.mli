(** Versioned JSONL wire schemas of the mapping service.

    One request per line ([mcx-request/1]), one response per line
    ([mcx-response/1]), both in the compact {!Mcx_util.Json_out} dialect.
    Responses are a pure function of the request (no timing, no cache
    flags), which is what lets the dispatcher guarantee byte-identical
    output across cache states and [MCX_JOBS] values.

    {2 Request}

    {v
{"schema":"mcx-request/1","id":"q1",
 "pla":".i 3\n.o 1\n11- 1\n.e"            (or "benchmark":"rd53"),
 "defects":{"rows":5,"cols":8,"open":[[0,1],[2,3]],"closed":[]}
           (or {"seed":7,"open_rate":0.1,"closed_rate":0.0}),
 "config":{"algorithm":"hybrid","order":"top_down",
           "include_il_row":false,"verify":true,"deadline_ms":250}}
    v}

    [id] defaults to ["#<line index>"]; [defects] defaults to a pristine
    crossbar; every [config] field is optional with the
    {!Mcx_mapping.Mapper.default} / no-verify / no-deadline defaults.
    Explicit defect coordinates must lie inside (and the [rows]/[cols]
    must equal) the cover's optimum geometry; seeded defects are
    generated at that geometry from the seed alone.

    {2 Response}

    {v
{"schema":"mcx-response/1","id":"q1","status":"ok","digest":"<hex>",
 "rows":5,"cols":8,"assignment":[2,0,1,4],"verified":true}
{"schema":"mcx-response/1","id":"q2","status":"infeasible","digest":"<hex>"}
{"schema":"mcx-response/1","id":"q3","status":"deadline","digest":"<hex>"}
{"schema":"mcx-response/1","id":"q4","status":"error","error":"..."}
    v}

    [assignment.(r)] is the physical crossbar row of FM row [r], in the
    {e request's own} row order (the dispatcher translates back from
    canonical space). [digest] is the canonical request digest — equal
    digests guarantee equal mapping problems. [verified] appears only
    when verification was requested and ran (covers with more than 16
    inputs skip it). *)

type defects_spec =
  | Pristine
  | Explicit of {
      rows : int;
      cols : int;
      stuck_open : (int * int) list;
      stuck_closed : (int * int) list;
    }
  | Seeded of { seed : int; open_rate : float; closed_rate : float }

type config = {
  mapper : Mcx_mapping.Mapper.config;
  verify : bool;
  deadline_ms : int option;
}

val default_config : config

type request = {
  id : string;
  source : [ `Pla of string | `Benchmark of string ];
  defects : defects_spec;
  config : config;
}

val request_schema : string
val response_schema : string

val request_of_line : index:int -> string -> (request, string) result
(** Parse one JSONL line; [index] (0-based position in the stream) names
    anonymous requests and is quoted in error messages
    (["request N: field ..."]). Rejected here, not deeper in resolve:
    unknown keys at the top level and in [defects] and [config], a
    negative [deadline_ms], [open_rate]/[closed_rate] outside [[0, 1]]
    (or summing above 1), explicit [open]/[closed] coordinates
    outside the request's own [rows]x[cols], a junction listed in both
    [open] and [closed], and a key repeated within one object. *)

val request_to_json : request -> Mcx_util.Json_out.t
(** Re-emit a request (used to generate bundled request files and by the
    round-trip tests). *)

type status = Ok_mapped | Infeasible | Deadline | Failed

type response = {
  id : string;
  status : status;
  digest : string option;
  rows : int option;
  cols : int option;
  assignment : int array option;
  verified : bool option;
  error : string option;
}

val status_to_string : status -> string
(** The wire encoding: ["ok"], ["infeasible"], ["deadline"], ["error"]
    — also the [status] field of {!Access_log} records. *)

val response : id:string -> status -> response
(** A response with every optional field empty. *)

val response_to_line : response -> string
(** Compact one-line rendering (no trailing newline); field order is
    fixed so equal responses are byte-equal. *)
