(* Two decks whose programs have one shape and different constants:
   Fig. 1 with G1 = 1.5 and the non-symbolic C2 at 2 (deck A) or 3
   (deck B).  Both compile to 75 instructions, so only a key that binds
   the program's constants tells the two models apart. *)

let deck c2 =
  Printf.sprintf
    "V1 in 0 1\nG1 in n1 1.5\nC1 n1 0 1\nG2 n1 n2 1\nC2 n2 0 %g\n.symbolic C1\n\
     .symbolic G2\n.input V1\n.output v(n2)\n"
    c2

let model c2 = Awesymbolic.Model.build ~order:2 (Circuit.Parser.parse_string (deck c2))
let a = lazy (model 2.0)
let b = lazy (model 3.0)

(* The models are the pair this module promises: one program size. *)
let both () =
  let a = Lazy.force a and b = Lazy.force b in
  Alcotest.(check int) "one program size" (Awesymbolic.Model.num_operations a)
    (Awesymbolic.Model.num_operations b);
  (a, b)

(* A refused resume or chunk: [invalid_request] naming the key mismatch. *)
let check_key_mismatch (e : Awesym_error.t) =
  Alcotest.(check string) "kind" "invalid_request" (Awesym_error.kind_name e.kind);
  let needle = "key mismatch" in
  let m = e.message in
  let rec has i =
    i + String.length needle <= String.length m
    && (String.sub m i (String.length needle) = needle || has (i + 1))
  in
  if not (has 0) then Alcotest.failf "expected a key mismatch, got %S" m
