(* Effect fixpoint over call-graph SCCs plus the four interprocedural
   rules. See the mli for the model. *)

type kind = Nondet | Io_out | Mut | Raises

let starts_with = Rules.starts_with

(* Entry points for transitive-nondet: the layers whose output the repo
   guarantees bit-identical (experiment tables, served batches, replayed
   checkpoints), plus fixture-nominated [@@mcx.lint.entrypoint] nodes. *)
let root_prefixes = [ "Mcx_experiments."; "Mcx_service.Serve." ]
let root_exact = [ "Mcx_util.Checkpoint.map"; "Mcx_util.Checkpoint.fold_completed" ]

(* Sanctioned escape hatches: nondeterminism routed through these modules
   is the repo's own deterministic machinery (key-mixed PRNG streams,
   monotonic clocks, trace gating, the validated Config knob registry). *)
let nondet_sanctioned =
  [ "Mcx_util.Prng."; "Mcx_util.Telemetry."; "Mcx_util.Timing."; "Mcx_util.Config." ]

(* Stdout reachable through Telemetry/Checkpoint is resume-aware (their
   summaries are stderr-only or replay-deterministic by construction). *)
let replay_sanctioned = [ "Mcx_util.Telemetry."; "Mcx_util.Checkpoint." ]

let sanctioned prefixes (id : string) =
  List.exists (fun p -> starts_with ~prefix:p id) prefixes

let is_root (n : Callgraph.node) =
  n.entrypoint
  || List.exists (fun p -> starts_with ~prefix:p n.id) root_prefixes
  || List.mem n.id root_exact

(* --- the fixpoint ----------------------------------------------------- *)

(* value(n) = direct(n) ∨ ∃ e ∈ edges(n). follow n e callee ∧ value(callee).
   Callgraph.sccs emits components successors-first, so one forward pass
   converges; members of a cycle share their component's value. *)
let fixpoint g ~direct ~follow =
  let value = Hashtbl.create 1024 in
  let node id = Callgraph.find g id in
  List.iter
    (fun comp ->
      let in_comp id = List.mem id comp in
      let v =
        List.exists (fun id -> match node id with Some n -> direct n | None -> false) comp
        || List.exists
             (fun id ->
               match node id with
               | None -> false
               | Some n ->
                 List.exists
                   (fun (e : Callgraph.edge) ->
                     (not (in_comp e.callee))
                     && (match node e.callee with
                        | Some c ->
                          follow n e c
                          && Option.value ~default:false (Hashtbl.find_opt value e.callee)
                        | None -> false))
                   n.edges)
             comp
      in
      List.iter (fun id -> Hashtbl.replace value id v) comp)
    (Callgraph.sccs g);
  fun id -> Option.value ~default:false (Hashtbl.find_opt value id)

let direct_source kind (n : Callgraph.node) =
  List.find_opt
    (fun (s : Callgraph.source) ->
      match (kind, s.kind) with
      | Nondet, Callgraph.Nondet | Io_out, Callgraph.Io_out | Raises, Callgraph.Raise ->
        true
      | _ -> false)
    n.sources

let transitive g ?(barrier = fun _ -> false) kind =
  let direct n =
    match kind with
    | Mut -> n.Callgraph.mutable_state
    | _ -> direct_source kind n <> None
  in
  let follow _n (e : Callgraph.edge) c =
    (not (barrier c)) && ((not (kind = Raises)) || not e.raise_protected)
  in
  fixpoint g ~direct ~follow

(* --- shortest source→sink chains (BFS over the masked graph) ---------- *)

let src_step (n : Callgraph.node) (s : Callgraph.source) : Finding.step =
  { name = s.name; file = n.nfile; line = s.sline; col = s.scol }

(* Shortest path from [start] to any node with a direct source, following
   only edges the fixpoint followed; [reaches] prunes dead branches so
   the BFS terminates quickly and the first hit is a shortest chain. *)
let find_chain g ~start ~follow ~direct ~reaches : Finding.step list option =
  match Callgraph.find g start with
  | None -> None
  | Some n0 -> (
    match direct n0 with
    | Some s -> Some [ src_step n0 s ]
    | None ->
      let visited = Hashtbl.create 64 in
      Hashtbl.add visited start ();
      let q = Queue.create () in
      Queue.add (n0, []) q;
      let result = ref None in
      (try
         while not (Queue.is_empty q) do
           let (n : Callgraph.node), steps = Queue.pop q in
           List.iter
             (fun (e : Callgraph.edge) ->
               if not (Hashtbl.mem visited e.callee) then
                 match Callgraph.find g e.callee with
                 | None -> ()
                 | Some c ->
                   if follow n e c then begin
                     Hashtbl.add visited e.callee ();
                     let step : Finding.step =
                       { name = c.id; file = n.nfile; line = e.eline; col = e.ecol }
                     in
                     match direct c with
                     | Some s ->
                       result := Some (List.rev (src_step c s :: step :: steps));
                       raise Exit
                     | None -> if reaches c.Callgraph.id then Queue.add (c, step :: steps) q
                   end)
             n.edges
         done
       with Exit -> ());
      !result)

let chain_sink chain =
  match List.rev chain with
  | (last : Finding.step) :: _ -> Printf.sprintf "%s (%s:%d)" last.name last.file last.line
  | [] -> "an effect source"

(* --- rules ------------------------------------------------------------ *)

let finding ~file ~line ~col ~rule ~message ~chain : Finding.t =
  { file; line; col; rule; message; chain }

let transitive_nondet g ~allowed acc =
  let rule = "transitive-nondet" in
  let barrier (c : Callgraph.node) =
    sanctioned nondet_sanctioned c.id
    || allowed ~rule ~file:c.nfile ~line:c.nline ~col:c.ncol
  in
  let direct = direct_source Nondet in
  let follow _n _e c = not (barrier c) in
  let reaches = fixpoint g ~direct:(fun n -> direct n <> None) ~follow in
  Callgraph.iter_nodes g (fun n ->
      if is_root n && reaches n.id then begin
        let chain =
          Option.value ~default:[]
            (find_chain g ~start:n.id ~follow ~direct ~reaches)
        in
        acc :=
          finding ~file:n.nfile ~line:n.nline ~col:n.ncol ~rule
            ~message:
              (Printf.sprintf
                 "%s can reach nondeterministic source %s without passing through \
                  Prng/Telemetry/Timing; thread a Prng.Key stream or bless the boundary \
                  function with [@mcx.lint.allow \"%s\"]"
                 n.id (chain_sink chain) rule)
            ~chain
          :: !acc
      end)

let closure_rule g ~allowed ~rule ~ckind ~barrier_ids ~src_kind ~mut ~message acc =
  let barrier (c : Callgraph.node) =
    sanctioned barrier_ids c.id || allowed ~rule ~file:c.nfile ~line:c.nline ~col:c.ncol
  in
  let direct (n : Callgraph.node) : Callgraph.source option =
    if mut then
      if
        n.mutable_state
        && (not (Rules.dls_guarded_file n.nfile))
        && (not (allowed ~rule:"domain-toplevel-state" ~file:n.nfile ~line:n.nline ~col:n.ncol))
        && not (allowed ~rule ~file:n.nfile ~line:n.nline ~col:n.ncol)
      then
        Some { Callgraph.kind = Callgraph.Nondet (* unused *); name = n.id;
               sline = n.nline; scol = n.ncol; in_span = None }
      else None
    else direct_source src_kind n
  in
  let follow _n _e c = not (barrier c) in
  let reaches = fixpoint g ~direct:(fun n -> direct n <> None) ~follow in
  Callgraph.iter_nodes g (fun n ->
      List.iter
        (fun (cs : Callgraph.closure_site) ->
          if cs.ckind = ckind then
            match Callgraph.find g cs.target with
            | None -> ()
            | Some t ->
              if reaches t.id then begin
                let tail =
                  Option.value ~default:[]
                    (find_chain g ~start:t.id ~follow ~direct ~reaches)
                in
                let chain =
                  ({ name = t.id; file = t.nfile; line = t.nline; col = t.ncol }
                    : Finding.step)
                  :: tail
                in
                acc :=
                  finding ~file:n.nfile ~line:cs.cline ~col:cs.ccol ~rule
                    ~message:(message cs (chain_sink chain))
                    ~chain
                  :: !acc
              end)
        n.closures)

let pool_closure_capture g ~allowed acc =
  closure_rule g ~allowed ~rule:"pool-closure-capture" ~ckind:Callgraph.Pool_closure
    ~barrier_ids:[] ~src_kind:Mut ~mut:true
    ~message:(fun (cs : Callgraph.closure_site) sink ->
      Printf.sprintf
        "closure passed to %s reaches top-level mutable state %s; it races across Pool \
         domains — allocate per trial, guard it, or bless the state with \
         [@mcx.lint.allow \"domain-toplevel-state\"]"
        cs.cfn sink)
    acc

let replay_io_divergence g ~allowed acc =
  closure_rule g ~allowed ~rule:"replay-io-divergence" ~ckind:Callgraph.Replay_closure
    ~barrier_ids:replay_sanctioned ~src_kind:Io_out ~mut:false
    ~message:(fun (cs : Callgraph.closure_site) sink ->
      Printf.sprintf
        "trial function journaled by %s writes to stdout via %s; resumed sweeps replay \
         journaled results without re-running trials, so resumed stdout diverges from an \
         uninterrupted run"
        cs.cfn sink)
    acc

let span_exception_unsafe g ~allowed acc =
  let rule = "span-exception-unsafe" in
  let barrier (c : Callgraph.node) =
    allowed ~rule ~file:c.nfile ~line:c.nline ~col:c.ncol
  in
  let direct = direct_source Raises in
  let follow _n (e : Callgraph.edge) c = (not e.raise_protected) && not (barrier c) in
  let reaches = fixpoint g ~direct:(fun n -> direct n <> None) ~follow in
  Callgraph.iter_nodes g (fun n ->
      List.iter
        (fun (sp : Callgraph.span_site) ->
          let site = Some (sp.spline, sp.spcol) in
          let direct_raises =
            List.find_opt
              (fun (s : Callgraph.source) -> s.kind = Callgraph.Raise && s.in_span = site)
              n.sources
          in
          let edge_raises =
            List.find_opt
              (fun (e : Callgraph.edge) ->
                e.e_in_span = site
                && (not e.raise_protected)
                &&
                match Callgraph.find g e.callee with
                | Some c -> (not (barrier c)) && (direct c <> None || reaches c.id)
                | None -> false)
              n.edges
          in
          let report chain sink =
            acc :=
              finding ~file:n.nfile ~line:sp.spline ~col:sp.spcol ~rule
                ~message:
                  (Printf.sprintf
                     "Telemetry.begin_span scope can be escaped by an exception from %s \
                      before end_span runs, leaking the open span; use Telemetry.span or \
                      add a handler that closes the span"
                     sink)
                ~chain
              :: !acc
          in
          match direct_raises with
          | Some s -> report [ src_step n s ] s.name
          | None -> (
            match edge_raises with
            | None -> ()
            | Some e -> (
              match Callgraph.find g e.callee with
              | None -> ()
              | Some c ->
                let head : Finding.step =
                  { name = c.id; file = n.nfile; line = e.eline; col = e.ecol }
                in
                let tail =
                  Option.value ~default:[]
                    (find_chain g ~start:c.id ~follow ~direct ~reaches)
                in
                let chain = head :: tail in
                report chain (chain_sink chain))))
        n.spans)

let run g ~allowed =
  let acc = ref [] in
  transitive_nondet g ~allowed acc;
  pool_closure_capture g ~allowed acc;
  span_exception_unsafe g ~allowed acc;
  replay_io_divergence g ~allowed acc;
  List.rev !acc
