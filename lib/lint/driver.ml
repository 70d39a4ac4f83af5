(* Orchestration: walk the scanned trees, parse every .ml/.mli (source
   rules + suppression spans), read every compiled module's .cmt once
   (typed rules + call-graph extraction), run the interprocedural effect
   rules over the whole-program graph, then filter findings through the
   attribute spans, the [lint.allow] file and [--only]. *)

type config = {
  root : string;  (** absolute repo root *)
  paths : string list;  (** repo-relative files/dirs to scan *)
  only : string list;  (** restrict to these rule ids; [] = all *)
  allow_file : string option;  (** repo-relative allowlist, e.g. [Some "lint.allow"] *)
}

let default_paths = [ "lib"; "bin"; "bench"; "test" ]

let default_config ~root =
  { root; paths = default_paths; only = []; allow_file = Some "lint.allow" }

let find_root () =
  let rec up dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else up parent
  in
  up (Sys.getcwd ())

(* --- tree walking ---------------------------------------------------- *)

let skip_dir name =
  name = "_build" || name = ".git" || (String.length name > 0 && name.[0] = '.')

let rec walk_files acc dir rel =
  match Sys.readdir dir with
  | exception Sys_error _ -> acc
  | entries ->
    Array.sort String.compare entries;
    Array.fold_left
      (fun acc entry ->
        let path = Filename.concat dir entry in
        let erel = if rel = "" then entry else rel ^ "/" ^ entry in
        if Sys.is_directory path then
          if skip_dir entry then acc else walk_files acc path erel
        else if Filename.check_suffix entry ".ml" || Filename.check_suffix entry ".mli" then
          erel :: acc
        else acc)
      acc entries

let scan_sources config =
  List.concat_map
    (fun p ->
      let abs = Filename.concat config.root p in
      if not (Sys.file_exists abs) then []
      else if Sys.is_directory abs then List.rev (walk_files [] abs p)
      else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli" then [ p ]
      else [])
    config.paths
  |> List.sort_uniq String.compare

(* --- parsing --------------------------------------------------------- *)

type parsed = {
  rel : string;
  spans : Allow.span list;
  source_findings : Finding.t list;
}

let parse_file config rel =
  let abs = Filename.concat config.root rel in
  let ic = open_in_bin abs in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let lexbuf = Lexing.from_channel ic in
      Lexing.set_filename lexbuf rel;
      if Filename.check_suffix rel ".mli" then
        let sg = Parse.interface lexbuf in
        { rel; spans = Allow.spans_of_signature sg; source_findings = [] }
      else
        let str = Parse.implementation lexbuf in
        { rel; spans = Allow.spans_of_structure str; source_findings = Source_lint.run ~file:rel str })

let parse_error_finding rel (loc : Location.t) =
  Finding.make ~file:rel ~line:loc.loc_start.pos_lnum
    ~col:(loc.loc_start.pos_cnum - loc.loc_start.pos_bol)
    ~rule:"parse-error" ~message:"file does not parse; fix it before linting"

(* --- cmt discovery --------------------------------------------------- *)

let rec walk_cmts acc dir =
  match Sys.readdir dir with
  | entries ->
    Array.sort String.compare entries;
    Array.fold_left
      (fun acc entry ->
        let path = Filename.concat dir entry in
        if Sys.is_directory path then
          if entry = ".git" || entry = ".sandbox" || entry = ".actions" then acc
          else walk_cmts acc path
        else if Filename.check_suffix entry ".cmt" then path :: acc
        else acc)
      acc entries
  | exception Sys_error _ -> acc

let cmt_paths root =
  let build = Filename.concat (Filename.concat root "_build") "default" in
  let roots = if Sys.file_exists build && Sys.is_directory build then [ build ] else [] in
  (* When the root *is* a dune build context (the self-hosting test runs
     inside _build/default), the .objs directories sit next to the copied
     sources. *)
  let roots = if roots = [] then [ root ] else roots in
  List.concat_map (fun r -> List.rev (walk_cmts [] r)) roots

let normalize_rel p =
  if String.length p >= 2 && String.sub p 0 2 = "./" then
    String.sub p 2 (String.length p - 2)
  else p

(* --- per-module analysis ---------------------------------------------- *)

(* Analyze one .cmt: the call-graph summary plus the module's typed
   findings. Interface-only and unreadable .cmt files yield [None]. *)
let analyze_cmt cmt_path =
  match Cmt_format.read_cmt cmt_path with
  | exception _ -> None
  | cmt -> (
    match (cmt.cmt_sourcefile, cmt.cmt_annots) with
    | Some src, Implementation str ->
      let rel = normalize_rel src in
      let summary =
        {
          Callgraph.modname = Callgraph.canonical cmt.cmt_modname;
          src = rel;
          nodes = Callgraph.of_cmt ~file:rel ~modname:cmt.cmt_modname str;
        }
      in
      Some (summary, Typed_lint.run ~file:rel ~modname:cmt.cmt_modname str)
    | _ -> None)

type cmt_pass = {
  summaries : Callgraph.summary list;
  cp_typed : Finding.t list;  (** deduped, scanned sources only *)
  cp_files_typed : int;
  cp_analyzed : int;  (** cmts read *)
}

let cmt_pass config ~source_set =
  let cmts = cmt_paths config.root in
  let analyzed = List.filter_map analyze_cmt cmts in
  (* Each scanned source contributes typed findings through at most one
     cmt (a source can be compiled into several build targets). *)
  let done_set = Hashtbl.create 64 in
  let typed = ref [] and files_typed = ref 0 in
  List.iter
    (fun ((s : Callgraph.summary), findings) ->
      if Hashtbl.mem source_set s.src && not (Hashtbl.mem done_set s.src) then begin
        Hashtbl.add done_set s.src ();
        incr files_typed;
        typed := findings @ !typed
      end)
    analyzed;
  {
    summaries = List.map fst analyzed;
    cp_typed = List.rev !typed;
    cp_files_typed = !files_typed;
    cp_analyzed = List.length cmts;
  }

(* --- top level ------------------------------------------------------- *)

type stale_allow = {
  sa_file : string;  (** source file, or the [lint.allow] path itself *)
  sa_line : int;
  sa_rule : string;  (** ["*"] for allow-everything entries *)
}

type result = {
  findings : Finding.t list;
  files_scanned : int;
  files_typed : int;  (** sources that had a matching .cmt *)
  graph_modules : int;  (** compilation units in the whole-program graph *)
  graph_nodes : int;
  modules_analyzed : int;  (** cmts read this run *)
  stale_allows : stale_allow list;
      (** allow spans/entries that suppressed nothing and served as no
          barrier this run *)
}

let run config =
  List.iter
    (fun id ->
      if not (Rules.mem id) then invalid_arg (Printf.sprintf "mcx-lint: unknown rule %S" id))
    config.only;
  let sources = scan_sources config in
  let source_set = Hashtbl.create 64 in
  List.iter (fun rel -> Hashtbl.replace source_set rel ()) sources;
  let spans_by_file = Hashtbl.create 64 in
  let source_findings = ref [] in
  List.iter
    (fun rel ->
      match parse_file config rel with
      | parsed ->
        Hashtbl.replace spans_by_file rel parsed.spans;
        source_findings := parsed.source_findings @ !source_findings
      | exception Syntaxerr.Error err ->
        source_findings :=
          parse_error_finding rel (Syntaxerr.location_of_error err) :: !source_findings
      | exception Lexer.Error (_, loc) ->
        source_findings := parse_error_finding rel loc :: !source_findings)
    sources;
  let pass = cmt_pass config ~source_set in
  let graph = Callgraph.build pass.summaries in
  (* Barrier / allow oracle for the interprocedural rules. Consulting a
     span marks it used, so an annotation whose only job is to stop
     effect propagation still counts for [--check-allows]. Files outside
     the scan set have no parsed spans; their findings are dropped below
     anyway. *)
  let allowed ~rule ~file ~line ~col =
    match Hashtbl.find_opt spans_by_file file with
    | Some spans -> Allow.allows spans ~rule ~line ~col
    | None -> false
  in
  let interproc =
    List.filter (fun (f : Finding.t) -> Hashtbl.mem source_set f.file) (Effects.run graph ~allowed)
  in
  let allow_entries =
    match config.allow_file with
    | None -> []
    | Some rel -> Allow.load_allow_file (Filename.concat config.root rel)
  in
  (* Evaluate both suppression mechanisms unconditionally (no &&
     short-circuit): usage marking must see every mechanism that would
     have matched, or [--check-allows] reports live annotations stale. *)
  let keep (f : Finding.t) =
    let file_allowed = Allow.allowed_by_file allow_entries f in
    let span_allowed =
      match Hashtbl.find_opt spans_by_file f.Finding.file with
      | Some spans -> Allow.suppressed spans f
      | None -> false
    in
    (config.only = [] || List.mem f.Finding.rule config.only)
    && (not file_allowed) && not span_allowed
  in
  let findings =
    List.filter keep (!source_findings @ pass.cp_typed @ interproc)
    |> List.sort_uniq Finding.compare
  in
  let stale_allows =
    let acc = ref [] in
    List.iter
      (fun (e : Allow.file_entry) ->
        if not e.entry_used then
          acc :=
            {
              sa_file = Option.value ~default:"lint.allow" config.allow_file;
              sa_line = e.entry_line;
              sa_rule = e.allow_rule;
            }
            :: !acc)
      allow_entries;
    List.iter
      (fun rel ->
        match Hashtbl.find_opt spans_by_file rel with
        | None -> ()
        | Some spans ->
          List.iter
            (fun (s : Allow.span) ->
              if not s.used then
                acc :=
                  {
                    sa_file = rel;
                    sa_line = s.start_line;
                    sa_rule = Option.value ~default:"*" s.rule;
                  }
                  :: !acc)
            spans)
      sources;
    List.sort compare !acc
  in
  {
    findings;
    files_scanned = List.length sources;
    files_typed = pass.cp_files_typed;
    graph_modules = Callgraph.module_count graph;
    graph_nodes = Callgraph.node_count graph;
    modules_analyzed = pass.cp_analyzed;
    stale_allows;
  }

(* --- reporting ------------------------------------------------------- *)

let report_text result =
  let buf = Buffer.create 256 in
  List.iter
    (fun f ->
      Buffer.add_string buf (Finding.to_string f);
      Buffer.add_char buf '\n')
    result.findings;
  Buffer.add_string buf
    (Printf.sprintf "mcx-lint: %d finding%s in %d files (%d with typed coverage)\n"
       (List.length result.findings)
       (if List.length result.findings = 1 then "" else "s")
       result.files_scanned result.files_typed);
  Buffer.add_string buf
    (Printf.sprintf "call graph: %d modules, %d nodes; analyzed %d cmts\n"
       result.graph_modules result.graph_nodes result.modules_analyzed);
  Buffer.contents buf

let stale_allow_to_json (s : stale_allow) =
  Mcx_util.Json_out.Obj
    [
      ("file", Mcx_util.Json_out.Str s.sa_file);
      ("line", Mcx_util.Json_out.Int s.sa_line);
      ("rule", Mcx_util.Json_out.Str s.sa_rule);
    ]

let report_json result =
  Mcx_util.Json_out.to_string
    (Mcx_util.Json_out.Obj
       [
         ("schema", Mcx_util.Json_out.Str "mcx-lint/1");
         ("files_scanned", Mcx_util.Json_out.Int result.files_scanned);
         ("files_typed", Mcx_util.Json_out.Int result.files_typed);
         ("graph_modules", Mcx_util.Json_out.Int result.graph_modules);
         ("graph_nodes", Mcx_util.Json_out.Int result.graph_nodes);
         ("modules_analyzed", Mcx_util.Json_out.Int result.modules_analyzed);
         ("count", Mcx_util.Json_out.Int (List.length result.findings));
         ("findings", Mcx_util.Json_out.List (List.map Finding.to_json result.findings));
         ( "stale_allows",
           Mcx_util.Json_out.List (List.map stale_allow_to_json result.stale_allows) );
       ])

let report_sarif result = Sarif.report result.findings
