type row = { cube : Cube.t; outputs : bool array }

type t = { n_inputs : int; n_outputs : int; rows : row list }

let merge_rows n_outputs rows =
  let table = Hashtbl.create (List.length rows * 2) in
  let order = ref [] in
  List.iter
    (fun { cube; outputs } ->
      let key = Cube.to_string cube in
      match Hashtbl.find_opt table key with
      | Some existing ->
        Array.iteri (fun k v -> if v then existing.outputs.(k) <- true) outputs
      | None ->
        let fresh = { cube; outputs = Array.copy outputs } in
        Hashtbl.replace table key fresh;
        order := fresh :: !order)
    rows;
  ignore n_outputs;
  List.filter (fun r -> Array.exists Fun.id r.outputs) (List.rev !order)

let create ?(share = true) ~n_inputs ~n_outputs rows =
  if n_inputs < 0 || n_outputs < 0 then invalid_arg "Mo_cover.create: negative counts";
  List.iter
    (fun { cube; outputs } ->
      if Cube.arity cube <> n_inputs then invalid_arg "Mo_cover.create: cube arity mismatch";
      if Array.length outputs <> n_outputs then
        invalid_arg "Mo_cover.create: output mask length mismatch")
    rows;
  let rows =
    if share then merge_rows n_outputs rows
    else
      List.filter_map
        (fun r ->
          if Array.exists Fun.id r.outputs then Some { r with outputs = Array.copy r.outputs }
          else None)
        rows
  in
  { n_inputs; n_outputs; rows }

let of_single f =
  let rows =
    List.map (fun cube -> { cube; outputs = [| true |] }) (Cover.cubes f)
  in
  create ~n_inputs:(Cover.arity f) ~n_outputs:1 rows

let of_covers = function
  | [] -> invalid_arg "Mo_cover.of_covers: empty list"
  | first :: _ as covers ->
    let n_inputs = Cover.arity first in
    let n_outputs = List.length covers in
    let rows =
      List.concat
        (List.mapi
           (fun k f ->
             if Cover.arity f <> n_inputs then
               invalid_arg "Mo_cover.of_covers: arity mismatch";
             List.map
               (fun cube ->
                 let outputs = Array.make n_outputs false in
                 outputs.(k) <- true;
                 { cube; outputs })
               (Cover.cubes f))
           covers)
    in
    create ~n_inputs ~n_outputs rows

let n_inputs t = t.n_inputs
let n_outputs t = t.n_outputs
let rows t = t.rows
let product_count t = List.length t.rows

let literal_count t =
  List.fold_left (fun acc r -> acc + Cube.num_literals r.cube) 0 t.rows

let connection_count t =
  List.fold_left
    (fun acc r -> acc + Array.fold_left (fun n b -> if b then n + 1 else n) 0 r.outputs)
    0 t.rows

let output_cover t k =
  if k < 0 || k >= t.n_outputs then invalid_arg "Mo_cover.output_cover: out of range";
  Cover.create ~arity:t.n_inputs
    (List.filter_map (fun r -> if r.outputs.(k) then Some r.cube else None) t.rows)

let eval t v =
  Array.init t.n_outputs (fun k -> Cover.eval (output_cover t k) v)

let rebuild_from_covers t covers =
  let combined = of_covers covers in
  { combined with n_outputs = t.n_outputs }

let complement t =
  let negate_output k =
    let f = output_cover t k in
    if t.n_inputs <= 14 then Qm.minimize (Truthtable.complement (Truthtable.of_cover f))
    else Minimize.complement_minimized f
  in
  rebuild_from_covers t (List.init t.n_outputs negate_output)

let minimize t =
  rebuild_from_covers t (List.init t.n_outputs (fun k -> Minimize.espresso (output_cover t k)))

let permute_vars t ~perm =
  let n = t.n_inputs in
  if Array.length perm <> n then invalid_arg "Mo_cover.permute_vars: length mismatch";
  let seen = Array.make n false in
  Array.iter
    (fun p ->
      if p < 0 || p >= n || seen.(p) then invalid_arg "Mo_cover.permute_vars: not a permutation";
      seen.(p) <- true)
    perm;
  let rows =
    List.map
      (fun r ->
        let literals = Array.make n Literal.Absent in
        for v = 0 to n - 1 do
          literals.(perm.(v)) <- Cube.get r.cube v
        done;
        { cube = Cube.of_literals literals; outputs = Array.copy r.outputs })
      t.rows
  in
  { t with rows }

(* Canonical form under product-row reordering and input relabeling; see
   the interface for the exact coalescing guarantee. Variables are
   ordered by their (positive, negative) occurrence counts — invariant
   under both row permutation and relabeling — with ties resolved by
   original position; rows are then sorted on the relabeled cubes. *)
let canonical t =
  let n = t.n_inputs in
  let pos = Array.make n 0 and neg = Array.make n 0 in
  List.iter
    (fun r ->
      for v = 0 to n - 1 do
        match Cube.get r.cube v with
        | Literal.Pos -> pos.(v) <- pos.(v) + 1
        | Literal.Neg -> neg.(v) <- neg.(v) + 1
        | Literal.Absent -> ()
      done)
    t.rows;
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      let c = compare (pos.(a), neg.(a)) (pos.(b), neg.(b)) in
      if c <> 0 then c else compare a b)
    order;
  let var_perm = Array.make n 0 in
  Array.iteri (fun canonical_pos v -> var_perm.(v) <- canonical_pos) order;
  let relabeled = permute_vars t ~perm:var_perm in
  let indexed = Array.of_list (List.mapi (fun i r -> (i, r)) relabeled.rows) in
  Array.sort
    (fun (_, a) (_, b) ->
      let c = Cube.compare a.cube b.cube in
      if c <> 0 then c else compare a.outputs b.outputs)
    indexed;
  let row_perm = Array.make (Array.length indexed) 0 in
  Array.iteri (fun canonical_pos (orig, _) -> row_perm.(orig) <- canonical_pos) indexed;
  let rows = Array.to_list (Array.map snd indexed) in
  ({ relabeled with rows }, row_perm, var_perm)

let equal_semantics a b =
  a.n_inputs = b.n_inputs && a.n_outputs = b.n_outputs
  && List.for_all
       (fun k -> Cover.equal_semantics (output_cover a k) (output_cover b k))
       (List.init a.n_outputs Fun.id)

let pp ppf t =
  Format.fprintf ppf "@[<v>.i %d@,.o %d@,.p %d" t.n_inputs t.n_outputs (product_count t);
  List.iter
    (fun r ->
      let mask =
        String.init (Array.length r.outputs) (fun k -> if r.outputs.(k) then '1' else '0')
      in
      Format.fprintf ppf "@,%s %s" (Cube.to_string r.cube) mask)
    t.rows;
  Format.fprintf ppf "@,.e@]"
