(* Hash-consed ROBDD with an ite cache. Nodes are integers indexing into
   growable arrays (struct-of-arrays keeps the unique table compact);
   node 0 = false, node 1 = true. *)

type manager = {
  n_vars : int;
  mutable var_of : int array;  (* node -> decision variable *)
  mutable low_of : int array;  (* node -> else child *)
  mutable high_of : int array;  (* node -> then child *)
  mutable n_nodes : int;
  unique : (int * int * int, int) Hashtbl.t;  (* (var, low, high) -> node *)
  ite_cache : (int * int * int, int) Hashtbl.t;
}

type t = { manager : manager; root : int }

let false_node = 0
let true_node = 1

let manager ?(cache_size = 1 lsl 14) ~n_vars () =
  if n_vars < 0 then invalid_arg "Bdd.manager: negative n_vars";
  let m =
    {
      n_vars;
      var_of = Array.make 1024 max_int;
      low_of = Array.make 1024 (-1);
      high_of = Array.make 1024 (-1);
      n_nodes = 2;
      unique = Hashtbl.create cache_size;
      ite_cache = Hashtbl.create cache_size;
    }
  in
  (* Terminals sort after every real variable. *)
  m.var_of.(false_node) <- max_int;
  m.var_of.(true_node) <- max_int;
  m

let n_vars m = m.n_vars

let grow m =
  if m.n_nodes = Array.length m.var_of then begin
    let n = 2 * m.n_nodes in
    let grow_arr a fill =
      let fresh = Array.make n fill in
      Array.blit a 0 fresh 0 m.n_nodes;
      fresh
    in
    m.var_of <- grow_arr m.var_of max_int;
    m.low_of <- grow_arr m.low_of (-1);
    m.high_of <- grow_arr m.high_of (-1)
  end

let mk m var low high =
  if low = high then low
  else begin
    let key = (var, low, high) in
    match Hashtbl.find_opt m.unique key with
    | Some node -> node
    | None ->
      grow m;
      let node = m.n_nodes in
      m.n_nodes <- node + 1;
      m.var_of.(node) <- var;
      m.low_of.(node) <- low;
      m.high_of.(node) <- high;
      Hashtbl.replace m.unique key node;
      node
  end

(* Core ite(f, g, h) = f ? g : h with standard terminal cases. *)
let rec ite_node m f g h =
  if f = true_node then g
  else if f = false_node then h
  else if g = h then g
  else if g = true_node && h = false_node then f
  else begin
    let key = (f, g, h) in
    match Hashtbl.find_opt m.ite_cache key with
    | Some node -> node
    | None ->
      let top = min m.var_of.(f) (min m.var_of.(g) m.var_of.(h)) in
      let cofactor node value =
        if m.var_of.(node) = top then if value then m.high_of.(node) else m.low_of.(node)
        else node
      in
      let high = ite_node m (cofactor f true) (cofactor g true) (cofactor h true) in
      let low = ite_node m (cofactor f false) (cofactor g false) (cofactor h false) in
      let node = mk m top low high in
      Hashtbl.replace m.ite_cache key node;
      node
  end

let bdd_true m = { manager = m; root = true_node }
let bdd_false m = { manager = m; root = false_node }

let var m i =
  if i < 0 || i >= m.n_vars then invalid_arg "Bdd.var: out of range";
  { manager = m; root = mk m i false_node true_node }

let nvar m i =
  if i < 0 || i >= m.n_vars then invalid_arg "Bdd.nvar: out of range";
  { manager = m; root = mk m i true_node false_node }

let check_same m t =
  if t.manager != m then invalid_arg "Bdd: node from a different manager"

let not_ m a =
  check_same m a;
  { manager = m; root = ite_node m a.root false_node true_node }

let and_ m a b =
  check_same m a;
  check_same m b;
  { manager = m; root = ite_node m a.root b.root false_node }

let or_ m a b =
  check_same m a;
  check_same m b;
  { manager = m; root = ite_node m a.root true_node b.root }

let xor m a b =
  check_same m a;
  check_same m b;
  let not_b = ite_node m b.root false_node true_node in
  { manager = m; root = ite_node m a.root not_b b.root }

let nand m a b = not_ m (and_ m a b)

let ite m f g h =
  check_same m f;
  check_same m g;
  check_same m h;
  { manager = m; root = ite_node m f.root g.root h.root }

let or_list m = List.fold_left (or_ m) (bdd_false m)

let equal a b = a.manager == b.manager && a.root = b.root
let is_true t = t.root = true_node
let is_false t = t.root = false_node

let eval t v =
  let m = t.manager in
  if Array.length v <> m.n_vars then invalid_arg "Bdd.eval: arity mismatch";
  let rec walk node =
    if node = true_node then true
    else if node = false_node then false
    else if v.(m.var_of.(node)) then walk m.high_of.(node)
    else walk m.low_of.(node)
  in
  walk t.root

let size t =
  let m = t.manager in
  let seen = Hashtbl.create 64 in
  let rec walk node =
    if node > true_node && not (Hashtbl.mem seen node) then begin
      Hashtbl.replace seen node ();
      walk m.low_of.(node);
      walk m.high_of.(node)
    end
  in
  walk t.root;
  Hashtbl.length seen

let count_minterms m t =
  check_same m t;
  let memo = Hashtbl.create 64 in
  (* fraction of the full space satisfying the sub-function *)
  let rec density node =
    if node = true_node then 1.
    else if node = false_node then 0.
    else
      match Hashtbl.find_opt memo node with
      | Some d -> d
      | None ->
        let d = 0.5 *. (density m.low_of.(node) +. density m.high_of.(node)) in
        Hashtbl.replace memo node d;
        d
  in
  density t.root *. (2. ** float_of_int m.n_vars)

let of_cube m cube =
  if Cube.arity cube <> m.n_vars then invalid_arg "Bdd.of_cube: arity mismatch";
  (* Build bottom-up along the variable order for a linear-size result. *)
  let root = ref true_node in
  for i = m.n_vars - 1 downto 0 do
    match Cube.get cube i with
    | Literal.Pos -> root := mk m i false_node !root
    | Literal.Neg -> root := mk m i !root false_node
    | Literal.Absent -> ()
  done;
  { manager = m; root = !root }

let of_cover m f =
  if Cover.arity f <> m.n_vars then invalid_arg "Bdd.of_cover: arity mismatch";
  or_list m (List.map (of_cube m) (Cover.cubes f))

let of_mo_cover m mo =
  if Mo_cover.n_inputs mo <> m.n_vars then invalid_arg "Bdd.of_mo_cover: arity mismatch";
  Array.init (Mo_cover.n_outputs mo) (fun k -> of_cover m (Mo_cover.output_cover mo k))

let cover_equal f g =
  if Cover.arity f <> Cover.arity g then invalid_arg "Bdd.cover_equal: arity mismatch";
  let m = manager ~n_vars:(Cover.arity f) () in
  equal (of_cover m f) (of_cover m g)

let mo_cover_equal a b =
  Mo_cover.n_inputs a = Mo_cover.n_inputs b
  && Mo_cover.n_outputs a = Mo_cover.n_outputs b
  &&
  let m = manager ~n_vars:(Mo_cover.n_inputs a) () in
  let xs = of_mo_cover m a and ys = of_mo_cover m b in
  Array.for_all2 equal xs ys
