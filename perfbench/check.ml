(* Correctness checks written independently of the library's own
   validators (Matching.check_assignment, Bmatrix word operations):
   plain per-junction reads and a textbook Kuhn augmenting-path
   matching. *)

module Bmatrix = Mcx_util.Bmatrix

(* A function-matrix row as the list of columns holding a required
   switch, and a crossbar matrix as one bool array per row. *)
type problem = { required : int list array; functional : bool array array }

let problem ~fm ~cm =
  let cols = Bmatrix.cols fm in
  let required =
    Array.init (Bmatrix.rows fm) (fun r ->
        List.filter (fun j -> Bmatrix.get fm r j) (List.init cols Fun.id))
  in
  let functional =
    Array.init (Bmatrix.rows cm) (fun c ->
        Array.init (Bmatrix.cols cm) (fun j -> Bmatrix.get cm c j))
  in
  { required; functional }

(* The same, reading the crossbar straight from a defect map: a junction
   is usable only when it is functional. *)
let problem_of_defects ~fm defects =
  let module D = Mcx_crossbar.Defect_map in
  let cm =
    Bmatrix.create ~rows:(D.rows defects) ~cols:(D.cols defects) false
  in
  for i = 0 to D.rows defects - 1 do
    for j = 0 to D.cols defects - 1 do
      if D.get defects i j = Mcx_crossbar.Junction.Functional then Bmatrix.set cm i j true
    done
  done;
  problem ~fm ~cm

let fits p r c = List.for_all (fun j -> p.functional.(c).(j)) p.required.(r)

(* FM rows go to distinct in-range CM rows, and every required switch
   lands on a functional junction. *)
let assignment_valid p a =
  let n_cm = Array.length p.functional in
  Array.length a = Array.length p.required
  && Array.for_all (fun c -> c >= 0 && c < n_cm) a
  && begin
       let seen = Array.make n_cm false in
       Array.for_all
         (fun c ->
           let fresh = not seen.(c) in
           seen.(c) <- true;
           fresh)
         a
     end
  && begin
       let ok = ref true in
       Array.iteri (fun r c -> if not (fits p r c) then ok := false) a;
       !ok
     end

(* Kuhn's algorithm: a perfect FM-side matching exists iff some valid
   row assignment exists. *)
let feasible p =
  let n_fm = Array.length p.required and n_cm = Array.length p.functional in
  let adj = Array.init n_fm (fun r -> List.filter (fits p r) (List.init n_cm Fun.id)) in
  let owner = Array.make n_cm (-1) in
  let rec augment seen r =
    List.exists
      (fun c ->
        if seen.(c) then false
        else begin
          seen.(c) <- true;
          if owner.(c) < 0 || augment seen owner.(c) then begin
            owner.(c) <- r;
            true
          end
          else false
        end)
      adj.(r)
  in
  let rec all r = r >= n_fm || (augment (Array.make n_cm false) r && all (r + 1)) in
  n_fm <= n_cm && all 0
