(* Native SLP kernels (lib/codegen): the hard contract is bit-for-bit
   identity with the interpreter — every output of every point, including
   -0.0, infinities and NaNs, under any jobs count and under fault
   injection.  Also covers the failure policy: toolchain masked -> silent
   interpreter fallback with a classified last_error; corrupted cached
   object -> one warning, quarantine to .cmxs.bad, recompile. *)

module Slp = Symbolic.Slp
module Expr = Symbolic.Expr
module Symbol = Symbolic.Symbol
module Err = Awesym_error

(* Every test resolves kernels through the on-disk cache; point it at a
   private temp dir so runs never cross-talk with a developer cache. *)
let cache_dir =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "awesym-test-codegen-%d" (Unix.getpid ()))
  in
  Unix.putenv "AWESYM_CACHE_DIR" d;
  d

let rm_rf dir =
  match Sys.readdir dir with
  | names ->
    Array.iter
      (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
      names;
    (try Sys.rmdir dir with Sys_error _ -> ())
  | exception Sys_error _ -> ()

let with_native f =
  Codegen.install ();
  Slp.set_backend Native;
  Fun.protect
    ~finally:(fun () ->
      Slp.set_backend Auto;
      Codegen.uninstall ())
    f

(* Bit-level comparison: NaN payloads included. *)
let bits = Int64.bits_of_float
let check_bits what a b =
  Alcotest.(check int64) what (bits a) (bits b)

(* Edge inputs the property sweeps over: signed zeros, infinities, NaN,
   denormal-range and huge magnitudes. *)
let edge_values =
  [| 0.0; -0.0; 1.0; -1.5; 0.75; Float.infinity; Float.neg_infinity;
     Float.nan; 1e-300; -1e300; Float.epsilon |]

(* ------------------------------------------------------------------ *)
(* A representative program with every opcode, built from expressions. *)

let opamp_like () =
  let x = Symbol.intern "x" and y = Symbol.intern "y" in
  let ex = Expr.sym x and ey = Expr.sym y in
  let open Expr in
  let num = add (mul ex ey) (neg (const 0.25)) in
  let den = add (mul ey ey) (const 1.0e-9) in
  let outs =
    [|
      mul num (inv den);
      sqrt (add (mul ex ex) (mul ey ey));
      exp (neg (mul ex (const 0.5)));
      add num (const 3.5);
    |]
  in
  Slp.compile ~inputs:[| x; y |] outs

let scalar_points p =
  let nin = Array.length (Slp.inputs p) in
  let npts = Array.length edge_values + 5 in
  Array.init npts (fun i ->
      Array.init nin (fun k ->
          if i < Array.length edge_values then
            edge_values.((i + (3 * k)) mod Array.length edge_values)
          else Float.of_int (((i * 7) + (k * 13)) mod 23) /. 8.0))

let check_program_identity ?(what = "") p =
  let points = scalar_points p in
  (* Scalar: interp first (fresh clone pinned to Interp via backend). *)
  Slp.set_backend Interp;
  let expect = Array.map (Slp.eval p) points in
  Slp.set_backend Native;
  if not (Codegen.available p) then
    Alcotest.failf "native unavailable for %s: %s" what
      (match Codegen.last_error () with
      | Some e -> Err.to_string e
      | None -> "(no classified error)");
  Array.iteri
    (fun i pt ->
      let got = Slp.eval p pt in
      Array.iteri
        (fun j g ->
          check_bits
            (Printf.sprintf "%s scalar point %d out %d" what i j)
            expect.(i).(j) g)
        got)
    points;
  (* Batched, across jobs counts and block sizes that split the range. *)
  let n = 700 in
  let nin = Array.length (Slp.inputs p) in
  let cols =
    Array.init nin (fun k ->
        Array.init n (fun i ->
            if i mod 3 = 0 then
              edge_values.((i + k) mod Array.length edge_values)
            else Float.of_int (((i * 31) + (k * 17)) mod 101) /. 16.0))
  in
  Slp.set_backend Interp;
  let expect_cols = Slp.eval_batch ~jobs:1 p cols in
  Slp.set_backend Native;
  List.iter
    (fun (jobs, block) ->
      let got = Slp.eval_batch ~jobs ~block p cols in
      Array.iteri
        (fun j col ->
          Array.iteri
            (fun i g ->
              check_bits
                (Printf.sprintf "%s batch jobs=%d block=%d out %d pt %d" what
                   jobs block j i)
                expect_cols.(j).(i) g)
            col)
        got)
    [ (1, Slp.default_block); (4, Slp.default_block); (4, 64); (3, 97) ];
  Slp.set_backend Auto

let test_native_matches_interp_bitwise () =
  with_native @@ fun () ->
  let p = opamp_like () in
  check_program_identity ~what:"opamp-like" p;
  (* And the kernel object landed in the content-addressed cache. *)
  Alcotest.(check bool)
    "compiled object cached" true
    (Sys.file_exists (Codegen.cache_path p))

(* ------------------------------------------------------------------ *)
(* Property: native ≡ interp over random programs (random register
   graphs, not just expression compilations — exercises register reuse,
   read-before-write init constants, constant outputs). *)

let slp_gen =
  QCheck2.Gen.(
    let* nin = 1 -- 3 in
    let* nregs = 2 -- 6 in
    let* nops = 1 -- 25 in
    let reg = 0 -- (nregs - 1) in
    let instr =
      let* op = 0 -- 6 in
      let* r = reg and* a = reg and* b = reg in
      let* slot = 0 -- (nin - 1) in
      return
        (match op with
        | 0 -> Slp.Load_input (r, slot)
        | 1 -> Slp.Add (r, a, b)
        | 2 -> Slp.Mul (r, a, b)
        | 3 -> Slp.Neg (r, a)
        | 4 -> Slp.Inv (r, a)
        | 5 -> Slp.Sqrt (r, a)
        | _ -> Slp.Exp (r, a))
    in
    let init_val =
      oneof
        [
          float_range (-4.0) 4.0;
          oneofl [ 0.0; -0.0; 1.0; Float.infinity; Float.nan; 1e-300 ];
        ]
    in
    let* instrs = array_size (return nops) instr in
    let* init = array_size (return nregs) init_val in
    let* nout = 1 -- 4 in
    let* outputs = array_size (return nout) reg in
    let inputs = Array.init nin (fun k -> Symbol.intern (Printf.sprintf "s%d" k)) in
    return (Slp.of_parts ~inputs ~instrs ~init ~outputs))

let prop_native_identity =
  QCheck2.Test.make ~name:"native ≡ interp bit-for-bit on random SLPs"
    ~count:20 slp_gen (fun p ->
      with_native @@ fun () ->
      check_program_identity ~what:"random" p;
      true)

(* The property's shrunk counterexample under QCHECK_SEED=812320976: the
   register holding NaN is added to the negated NaN input, and the two
   backends used to keep different operands' signs ("nan" vs "-nan").
   Every NaN output must now be [Float.nan] exactly, on both backends. *)
let test_two_nan_add () =
  with_native @@ fun () ->
  let nan_init = Int64.float_of_bits 0x7ff8000000000001L in
  let p =
    Slp.of_parts
      ~inputs:[| Symbol.intern "s0" |]
      ~instrs:
        [|
          Slp.Load_input (0, 0); Slp.Load_input (0, 0); Slp.Neg (0, 0);
          Slp.Add (2, 1, 0);
        |]
      ~init:[| -4.0; nan_init; -4.0; -4.0; -4.0 |]
      ~outputs:[| 0; 2 |]
  in
  check_program_identity ~what:"two-NaN add" p;
  List.iter
    (fun backend ->
      Slp.set_backend backend;
      Array.iter (check_bits "canonical NaN" Float.nan) (Slp.eval p [| Float.nan |]))
    [ Slp.Interp; Slp.Native ];
  Slp.set_backend Auto

(* ------------------------------------------------------------------ *)
(* Fault-injection parity: both backends walk the same block grid and
   cut the same (site, key) pairs, so an armed fault fires identically —
   native can never "skip past" a fault the interpreter would hit. *)

let test_fault_parity () =
  let p = opamp_like () in
  let n = 1000 in
  let cols =
    Array.init 2 (fun k -> Array.init n (fun i -> Float.of_int (i + k) /. 64.))
  in
  let outcome () =
    match Slp.eval_batch ~jobs:1 p cols with
    | _ -> None
    | exception Err.Error e -> Some (e.Err.kind, e.Err.where)
  in
  Fun.protect ~finally:Runtime.Fault.disarm @@ fun () ->
  List.iter
    (fun seed ->
      Runtime.Fault.arm ~seed "slp.eval_batch:0.5";
      Slp.set_backend Interp;
      let interp = outcome () in
      let fired = interp <> None in
      let native =
        with_native @@ fun () ->
        Alcotest.(check bool) "native available" true (Codegen.available p);
        outcome ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: same fault outcome" seed)
        fired (native <> None);
      if fired then
        Alcotest.(check (pair string string))
          (Printf.sprintf "seed %d: same classification" seed)
          (match interp with
          | Some (k, w) -> (Err.kind_name k, w)
          | None -> assert false)
          (match native with
          | Some (k, w) -> (Err.kind_name k, w)
          | None -> assert false))
    [ 0; 1; 7 ];
  Slp.set_backend Auto

(* ------------------------------------------------------------------ *)
(* The single-owner latch survives the native fast path: two domains
   racing one evaluator -> exactly one winner, one Invalid_argument. *)

let test_native_batch_single_owner () =
  with_native @@ fun () ->
  let p = opamp_like () in
  Alcotest.(check bool) "native available" true (Codegen.available p);
  let n = 4096 in
  let cols =
    Array.init 2 (fun k -> Array.init n (fun i -> Float.of_int (i + k) /. 512.))
  in
  let run = Slp.make_batch_evaluator ~jobs:2 p in
  let rec attempt tries =
    if tries = 0 then
      Alcotest.fail "never observed a concurrent overlap in 200 tries"
    else begin
      let gate = Atomic.make 0 in
      let race () =
        Atomic.incr gate;
        while Atomic.get gate < 2 do
          Domain.cpu_relax ()
        done;
        match run cols with
        | r -> Ok r
        | exception Invalid_argument m -> Error m
      in
      let d = Domain.spawn race in
      let a = race () in
      let b = Domain.join d in
      match (a, b) with
      | Ok _, Ok _ -> attempt (tries - 1) (* no overlap this time *)
      | Error m, Error _ ->
        Alcotest.failf "both calls rejected: %s" m
      | (Ok r, Error m | Error m, Ok r) ->
        Alcotest.(check bool)
          "loser names the single-owner contract" true
          (String.length m > 0);
        (* The winner's results are uncorrupted. *)
        let expect = Slp.eval_batch ~jobs:1 p cols in
        Array.iteri
          (fun j col ->
            Array.iteri
              (fun i g -> check_bits (Printf.sprintf "out %d pt %d" j i)
                   expect.(j).(i) g)
              col)
          r
    end
  in
  attempt 200

(* ------------------------------------------------------------------ *)
(* Failure policy. *)

(* Masking PATH must turn --backend native into a silent interpreter
   run with a classified Invalid_request behind [last_error].  Uses a
   fresh program (fresh digest) so no memoized verdict applies. *)
let test_fallback_without_toolchain () =
  let x = Symbol.intern "x" in
  let p =
    Slp.compile ~inputs:[| x |]
      [| Expr.(exp (add (sym x) (const 41.0))) |]
  in
  let saved_path = try Sys.getenv "PATH" with Not_found -> "" in
  Fun.protect ~finally:(fun () -> Unix.putenv "PATH" saved_path)
  @@ fun () ->
  Unix.putenv "PATH" "/nonexistent-awesym-test";
  with_native @@ fun () ->
  Alcotest.(check bool) "provider declines" false (Codegen.available p);
  (match Codegen.last_error () with
  | Some e ->
    Alcotest.(check string) "classified as invalid_request" "invalid_request"
      (Err.kind_name e.Err.kind)
  | None -> Alcotest.fail "expected a classified last_error");
  (* Evaluation silently continues on the interpreter, bit-identical. *)
  let got = Slp.eval p [| 1.0 |] in
  Slp.set_backend Interp;
  let expect = Slp.eval p [| 1.0 |] in
  check_bits "fallback result" expect.(0) got.(0)

(* A corrupted cached object: load fails validation -> warn once,
   quarantine to .cmxs.bad, recompile in place, and results stay
   correct.  The cache path is derived before any resolution so the
   garbage is what the first probe sees. *)
let test_quarantine_corrupt_object () =
  let x = Symbol.intern "x" in
  let p =
    Slp.compile ~inputs:[| x |]
      [| Expr.(mul (sym x) (const 1234.5)) |]
  in
  let dest = Codegen.cache_path p in
  Awesymbolic.Cache.ensure_dir (Filename.dirname dest);
  let oc = open_out_bin dest in
  output_string oc "definitely not a .cmxs";
  close_out oc;
  with_native @@ fun () ->
  Alcotest.(check bool) "recompiled after quarantine" true
    (Codegen.available p);
  Alcotest.(check bool) "stale object quarantined" true
    (Sys.file_exists (dest ^ ".bad"));
  Alcotest.(check bool) "fresh object republished" true (Sys.file_exists dest);
  let got = Slp.eval p [| 2.0 |] in
  Slp.set_backend Interp;
  let expect = Slp.eval p [| 2.0 |] in
  check_bits "post-quarantine result" expect.(0) got.(0)

(* Oversized programs are never compiled (ocamlopt time bound). *)
let test_max_ops_guard () =
  let x = Symbol.intern "x" in
  let nops = Codegen.max_ops + 1 in
  let instrs =
    Array.init nops (fun i ->
        if i = 0 then Slp.Load_input (0, 0) else Slp.Add (0, 0, 0))
  in
  let p =
    Slp.of_parts ~inputs:[| x |] ~instrs ~init:[| 0.0 |] ~outputs:[| 0 |]
  in
  with_native @@ fun () ->
  Alcotest.(check bool) "declined" false (Codegen.available p);
  (* 1.0 doubled max_ops times overflows: the interpreter's answer. *)
  let got = Slp.eval p [| 1.0 |] in
  check_bits "interp result" Float.infinity got.(0)

let () =
  let cleanup () = rm_rf cache_dir in
  at_exit cleanup;
  Alcotest.run "codegen"
    [
      ( "identity",
        [
          Alcotest.test_case "opamp-like program, scalar+batch" `Quick
            test_native_matches_interp_bitwise;
          QCheck_alcotest.to_alcotest prop_native_identity;
          Alcotest.test_case "two-NaN add folds to Float.nan" `Quick
            test_two_nan_add;
        ] );
      ( "parity",
        [
          Alcotest.test_case "fault injection fires identically" `Quick
            test_fault_parity;
          Alcotest.test_case "native batch evaluator is single-owner" `Quick
            test_native_batch_single_owner;
        ] );
      ( "failure policy",
        [
          Alcotest.test_case "fallback without toolchain" `Quick
            test_fallback_without_toolchain;
          Alcotest.test_case "quarantine corrupt cached object" `Quick
            test_quarantine_corrupt_object;
          Alcotest.test_case "max_ops guard declines" `Quick
            test_max_ops_guard;
        ] );
    ]
