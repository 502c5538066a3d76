(* Generators shared by the codec properties of several suites. *)

module Err = Awesym_error

let special_floats =
  [ 0.0; -0.0; 1.0; -1.0; Float.pi; 1e-300; -1e300; Float.epsilon;
    Float.infinity; Float.neg_infinity; Float.nan; Float.min_float;
    Float.max_float ]

(* Any float, special values and raw bit patterns (NaN payloads) included. *)
let weird_float =
  QCheck2.Gen.(oneof [ float; oneofl special_floats; map Int64.float_of_bits int64 ])

(* A finite float that is integral about a third of the time, so the
   "integer + 0.5" mutation reaches decimal fields too. *)
let finite_float =
  QCheck2.Gen.(oneof [ float_range (-1e6) 1e6; map float_of_int (int_range (-1000) 1000) ])

(* Errors with every optional field drawn: file, line, condition (a
   finite decimal) and a context with distinct keys. *)
let err =
  QCheck2.Gen.(
    let text = small_string ~gen:printable in
    let* kind = oneofl Err.all_kinds in
    let* where = text in
    let* message = text in
    let* file = option text in
    let* line = option nat in
    let* condition = option finite_float in
    let* context = small_list (pair text text) in
    let rec distinct = function
      | [] -> []
      | (k, v) :: rest -> (k, v) :: distinct (List.filter (fun (k', _) -> k' <> k) rest)
    in
    let context = distinct context in
    return (Err.make ?file ?line ?condition ~context kind ~where message))

let dist =
  QCheck2.Gen.(
    let positive = map (fun x -> Float.abs x +. 1e-3) finite_float in
    let module Dist = Sweep.Dist in
    oneof
      [ map2 (fun lo w -> Dist.uniform ~lo ~hi:(lo +. w)) finite_float positive;
        map2 (fun mean std -> Dist.normal ~mean ~std) finite_float positive;
        map2 (fun mu sigma -> Dist.lognormal ~mu ~sigma) finite_float positive ])
