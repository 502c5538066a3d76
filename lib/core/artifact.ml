(* Versioned, checksummed on-disk form of a compiled model.

   Layout:  magic (9 bytes) | format version (u32 LE) | MD5 of payload
   (16 bytes) | payload.  The payload serializes floats as their IEEE-754
   bit patterns (Int64 LE), so save -> load round-trips are bit-identical —
   the property that makes a cached model interchangeable with the build
   that produced it.  Every decode error, including a version or checksum
   mismatch, raises [Format_error] with a message that says what to do. *)

module Slp = Symbolic.Slp
module Sym = Symbolic.Symbol

exception Format_error of string

let version = 1
let magic = "AWESYMMDL"

type payload = {
  order : int;
  symbol_names : string array;
  nominals : float array;
  output : Circuit.Netlist.output option;
  moment_program : Slp.t;
  closed_program : Slp.t option;
}

let fail fmt = Printf.ksprintf (fun msg -> raise (Format_error msg)) fmt

(* ------------------------------------------------------------------ *)
(* Primitive encoders / decoders *)

let enc_u8 b v = Buffer.add_uint8 b v

let enc_u32 b v =
  if v < 0 || v > 0x3FFFFFFF then
    invalid_arg (Printf.sprintf "Artifact: length %d out of u32 range" v);
  Buffer.add_int32_le b (Int32.of_int v)

let enc_f64 b v = Buffer.add_int64_le b (Int64.bits_of_float v)

let enc_str b s =
  enc_u32 b (String.length s);
  Buffer.add_string b s

type src = { data : string; mutable pos : int }

let need src n =
  if src.pos + n > String.length src.data then
    fail "truncated artifact (wanted %d bytes at offset %d of %d)" n src.pos
      (String.length src.data)

let dec_u8 src =
  need src 1;
  let v = Char.code src.data.[src.pos] in
  src.pos <- src.pos + 1;
  v

let dec_u32 src =
  need src 4;
  let v = Int32.to_int (String.get_int32_le src.data src.pos) in
  src.pos <- src.pos + 4;
  if v < 0 then fail "negative length at offset %d" (src.pos - 4);
  v

let dec_f64 src =
  need src 8;
  let v = Int64.float_of_bits (String.get_int64_le src.data src.pos) in
  src.pos <- src.pos + 8;
  v

let dec_str src =
  let n = dec_u32 src in
  need src n;
  let s = String.sub src.data src.pos n in
  src.pos <- src.pos + n;
  s

(* ------------------------------------------------------------------ *)
(* Program bytecode *)

let enc_program b p =
  let inputs = Slp.inputs p in
  enc_u32 b (Array.length inputs);
  Array.iter (fun s -> enc_str b (Sym.name s)) inputs;
  let instrs = Slp.instructions p in
  enc_u32 b (Array.length instrs);
  Array.iter
    (fun (i : Slp.instr) ->
      match i with
      | Slp.Load_input (r, s) ->
        enc_u8 b 0;
        enc_u32 b r;
        enc_u32 b s
      | Slp.Add (r, x, y) ->
        enc_u8 b 1;
        enc_u32 b r;
        enc_u32 b x;
        enc_u32 b y
      | Slp.Mul (r, x, y) ->
        enc_u8 b 2;
        enc_u32 b r;
        enc_u32 b x;
        enc_u32 b y
      | Slp.Neg (r, x) ->
        enc_u8 b 3;
        enc_u32 b r;
        enc_u32 b x
      | Slp.Inv (r, x) ->
        enc_u8 b 4;
        enc_u32 b r;
        enc_u32 b x
      | Slp.Sqrt (r, x) ->
        enc_u8 b 5;
        enc_u32 b r;
        enc_u32 b x
      | Slp.Exp (r, x) ->
        enc_u8 b 6;
        enc_u32 b r;
        enc_u32 b x)
    instrs;
  let init = Slp.init_registers p in
  enc_u32 b (Array.length init);
  Array.iter (enc_f64 b) init;
  let outputs = Slp.output_registers p in
  enc_u32 b (Array.length outputs);
  Array.iter (enc_u32 b) outputs

let dec_program src =
  let n_inputs = dec_u32 src in
  let inputs = Array.init n_inputs (fun _ -> Sym.intern (dec_str src)) in
  let n_instrs = dec_u32 src in
  let instrs =
    Array.init n_instrs (fun _ ->
        match dec_u8 src with
        | 0 ->
          let r = dec_u32 src in
          let s = dec_u32 src in
          Slp.Load_input (r, s)
        | 1 ->
          let r = dec_u32 src in
          let x = dec_u32 src in
          let y = dec_u32 src in
          Slp.Add (r, x, y)
        | 2 ->
          let r = dec_u32 src in
          let x = dec_u32 src in
          let y = dec_u32 src in
          Slp.Mul (r, x, y)
        | 3 ->
          let r = dec_u32 src in
          let x = dec_u32 src in
          Slp.Neg (r, x)
        | 4 ->
          let r = dec_u32 src in
          let x = dec_u32 src in
          Slp.Inv (r, x)
        | 5 ->
          let r = dec_u32 src in
          let x = dec_u32 src in
          Slp.Sqrt (r, x)
        | 6 ->
          let r = dec_u32 src in
          let x = dec_u32 src in
          Slp.Exp (r, x)
        | op -> fail "unknown opcode %d at offset %d" op (src.pos - 1))
  in
  let n_regs = dec_u32 src in
  let init = Array.init n_regs (fun _ -> dec_f64 src) in
  let n_outs = dec_u32 src in
  let outputs = Array.init n_outs (fun _ -> dec_u32 src) in
  match Slp.of_parts ~inputs ~instrs ~init ~outputs with
  | p -> p
  | exception Invalid_argument msg -> fail "malformed program: %s" msg

(* ------------------------------------------------------------------ *)
(* Payload *)

let enc_payload b (p : payload) =
  enc_u32 b p.order;
  if Array.length p.symbol_names <> Array.length p.nominals then
    invalid_arg "Artifact: symbol_names and nominals length mismatch";
  enc_u32 b (Array.length p.symbol_names);
  Array.iteri
    (fun k name ->
      enc_str b name;
      enc_f64 b p.nominals.(k))
    p.symbol_names;
  (match p.output with
  | None -> enc_u8 b 0
  | Some (Circuit.Netlist.Node n) ->
    enc_u8 b 1;
    enc_str b n
  | Some (Circuit.Netlist.Diff (a, bn)) ->
    enc_u8 b 2;
    enc_str b a;
    enc_str b bn);
  enc_program b p.moment_program;
  match p.closed_program with
  | None -> enc_u8 b 0
  | Some cp ->
    enc_u8 b 1;
    enc_program b cp

let dec_payload src =
  let order = dec_u32 src in
  if order < 1 then fail "nonsensical model order %d" order;
  let n_sym = dec_u32 src in
  let symbol_names = Array.make n_sym "" in
  let nominals = Array.make n_sym 0.0 in
  for k = 0 to n_sym - 1 do
    symbol_names.(k) <- dec_str src;
    nominals.(k) <- dec_f64 src
  done;
  let output =
    match dec_u8 src with
    | 0 -> None
    | 1 -> Some (Circuit.Netlist.Node (dec_str src))
    | 2 ->
      let a = dec_str src in
      let bn = dec_str src in
      Some (Circuit.Netlist.Diff (a, bn))
    | tag -> fail "unknown output tag %d" tag
  in
  let moment_program = dec_program src in
  let closed_program =
    match dec_u8 src with
    | 0 -> None
    | 1 -> Some (dec_program src)
    | tag -> fail "unknown closed-form tag %d" tag
  in
  if src.pos <> String.length src.data then
    fail "trailing garbage: %d bytes past the payload"
      (String.length src.data - src.pos);
  { order; symbol_names; nominals; output; moment_program; closed_program }

(* ------------------------------------------------------------------ *)
(* Files *)

let to_string (p : payload) =
  let body = Buffer.create 4096 in
  enc_payload body p;
  let body = Buffer.contents body in
  let b = Buffer.create (String.length body + 32) in
  Buffer.add_string b magic;
  Buffer.add_int32_le b (Int32.of_int version);
  Buffer.add_string b (Digest.string body);
  Buffer.add_string b body;
  Buffer.contents b

let of_string data =
  let header_len = String.length magic + 4 + 16 in
  if String.length data < header_len then
    fail "file too short to be a model artifact (%d bytes)"
      (String.length data);
  if String.sub data 0 (String.length magic) <> magic then
    fail "bad magic: not an awesym model artifact";
  let got_version =
    Int32.to_int (String.get_int32_le data (String.length magic))
  in
  if got_version <> version then
    fail
      "artifact format version %d, but this build reads version %d — \
       recompile the model with `awesym compile`"
      got_version version;
  let digest = String.sub data (String.length magic + 4) 16 in
  let body =
    String.sub data header_len (String.length data - header_len)
  in
  if Digest.string body <> digest then
    fail "checksum mismatch: the artifact is corrupted";
  dec_payload { data = body; pos = 0 }

let save path p =
  Obs.Span.with_ ~name:"model.save" @@ fun () ->
  let data = to_string p in
  Awesym_error.writing ~where:"artifact.save" path (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc data));
  if !Obs.enabled then begin
    Obs.Metrics.incr "model.save.count";
    Obs.Metrics.add "model.save.bytes" (String.length data)
  end

let load path =
  Obs.Span.with_ ~name:"model.load" @@ fun () ->
  Runtime.Fault.cut "artifact.read" ~key:(Hashtbl.hash path);
  let ic = open_in_bin path in
  let data =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let p = of_string data in
  if !Obs.enabled then Obs.Metrics.incr "model.load.count";
  p

(* Taxonomy bridge: [Format_error] stays (callers match it to trigger
   cache rebuilds); the classifier folds it into the shared taxonomy. *)
let () =
  Awesym_error.register (function
    | Format_error msg ->
        Some (Awesym_error.make Artifact_corrupt ~where:"artifact.load" msg)
    | _ -> None)
