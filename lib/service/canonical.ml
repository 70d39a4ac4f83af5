module Geometry = Mcx_crossbar.Geometry
module Defect_map = Mcx_crossbar.Defect_map
module Mo_cover = Mcx_logic.Mo_cover
module Mapper = Mcx_mapping.Mapper

type t = {
  request : Wire.request;
  cover : Mo_cover.t;
  defects : Defect_map.t;
  geometry : Geometry.t;
  row_perm : int array;
  digest : string;
}

let ( let* ) = Result.bind

let load_cover = function
  | `Pla text -> (
    match Mcx_logic.Pla.parse_string text with
    | parsed -> Ok parsed.Mcx_logic.Pla.cover
    | exception Mcx_logic.Pla.Parse_error (line, msg) ->
      Error (Printf.sprintf "field \"pla\": bad PLA (line %d): %s" line msg))
  | `Benchmark name -> (
    match Mcx_benchmarks.Suite.find name with
    | bench -> Ok (Mcx_benchmarks.Suite.cover bench)
    | exception Not_found ->
      Error (Printf.sprintf "field \"benchmark\": unknown benchmark %S" name))

let materialize_defects (request : Wire.request) geometry =
  let rows = Geometry.rows geometry and cols = Geometry.cols geometry in
  match request.Wire.defects with
  | Wire.Pristine -> Ok (Defect_map.create ~rows ~cols)
  | Wire.Seeded { seed; open_rate; closed_rate } ->
    Ok (Defect_map.random (Mcx_util.Prng.create seed) ~rows ~cols ~open_rate ~closed_rate)
  | Wire.Explicit { rows = r; cols = c; _ } when r <> rows || c <> cols ->
    Error
      (Printf.sprintf
         "field \"defects\": defect map is %dx%d but the cover's optimum crossbar is %dx%d" r
         c rows cols)
  | Wire.Explicit { stuck_open; stuck_closed; _ } ->
    let map = Defect_map.create ~rows ~cols in
    List.iter (fun (i, j) -> Defect_map.set map i j Mcx_crossbar.Junction.Stuck_open) stuck_open;
    List.iter
      (fun (i, j) -> Defect_map.set map i j Mcx_crossbar.Junction.Stuck_closed)
      stuck_closed;
    Ok map

(* Permute the defect map's input columns by the cover's variable
   relabeling. Output result-pair columns and all rows stay put: the
   relabeling touches variables only. *)
let permute_defect_columns geometry ~var_perm defects =
  if Array.for_all2 (fun v p -> v = p) (Array.init (Array.length var_perm) Fun.id) var_perm
  then defects
  else begin
    let rows = Defect_map.rows defects and cols = Defect_map.cols defects in
    let permuted = Defect_map.create ~rows ~cols in
    for j = 0 to cols - 1 do
      let j' =
        match Geometry.column_role geometry j with
        | Geometry.Input_pos v -> Geometry.column_of_role geometry (Geometry.Input_pos var_perm.(v))
        | Geometry.Input_neg v -> Geometry.column_of_role geometry (Geometry.Input_neg var_perm.(v))
        | Geometry.Output_main _ | Geometry.Output_comp _ -> j
      in
      for i = 0 to rows - 1 do
        match Defect_map.get defects i j with
        | Mcx_crossbar.Junction.Functional -> ()
        | defect -> Defect_map.set permuted i j' defect
      done
    done;
    permuted
  end

let canonicalize (request : Wire.request) =
  Mcx_util.Telemetry.span "serve.canonicalize" @@ fun () ->
  let* original = load_cover request.Wire.source in
  let config = request.Wire.config in
  let geometry =
    Geometry.create
      ~include_il_row:config.Wire.mapper.Mapper.include_il_row
      ~n_inputs:(Mo_cover.n_inputs original)
      ~n_outputs:(Mo_cover.n_outputs original)
      ~n_products:(Mo_cover.product_count original)
      ()
  in
  let* defects_original = materialize_defects request geometry in
  let cover, row_perm, var_perm = Mo_cover.canonical original in
  let defects = permute_defect_columns geometry ~var_perm defects_original in
  let digest =
    Digest.to_hex
      (Digest.string
         (String.concat "\n"
            [
              Wire.request_schema;
              Mcx_logic.Pla.to_string cover;
              Defect_map.digest defects;
              Mapper.signature config.Wire.mapper;
              Printf.sprintf "verify=%b" config.Wire.verify;
            ]))
  in
  Ok { request; cover; defects; geometry; row_perm; digest }

let of_request ~index request =
  Result.map_error (Printf.sprintf "request %d: %s" index) (canonicalize request)

let resolve request =
  match canonicalize request with Ok t -> t | Error msg -> invalid_arg msg

let translate_assignment t canonical_assignment =
  Array.init (Array.length canonical_assignment) (fun r ->
      match Geometry.row_role t.geometry r with
      | Geometry.Product p ->
        canonical_assignment.(Geometry.row_of_role t.geometry (Geometry.Product t.row_perm.(p)))
      | Geometry.Input_latch | Geometry.Output_row _ -> canonical_assignment.(r))
