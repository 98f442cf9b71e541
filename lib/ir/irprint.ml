(** Textual dump of the IR, LLVM-flavoured, for debugging and tests.
    Float literals print in hexadecimal ([%h]), so every bit survives
    [Irparse]; an integer literal never takes that shape. *)

open Instr

let value_to_string = function
  | Reg r -> Printf.sprintf "%%%d" r
  | ImmInt (v, s) -> Printf.sprintf "%s %Ld" (Irtype.scalar_to_string s) v
  | ImmFloat (f, s) -> Printf.sprintf "%s %h" (Irtype.scalar_to_string s) f
  | Null -> "null"
  | GlobalAddr g -> "@" ^ g
  | FuncAddr f -> "@" ^ f

(* Opcode spellings, one [(op, name)] list per kind: the printer reads
   them forwards and [Irparse] in reverse. *)
let binop_names =
  [ (Add, "add"); (Sub, "sub"); (Mul, "mul");
    (Sdiv, "sdiv"); (Udiv, "udiv"); (Srem, "srem"); (Urem, "urem");
    (Shl, "shl"); (Lshr, "lshr"); (Ashr, "ashr");
    (And, "and"); (Or, "or"); (Xor, "xor");
    (FAdd, "fadd"); (FSub, "fsub"); (FMul, "fmul"); (FDiv, "fdiv") ]

let icmp_names =
  [ (Ieq, "eq"); (Ine, "ne");
    (Islt, "slt"); (Isle, "sle"); (Isgt, "sgt"); (Isge, "sge");
    (Iult, "ult"); (Iule, "ule"); (Iugt, "ugt"); (Iuge, "uge") ]

let fcmp_names =
  [ (Feq, "oeq"); (Fne, "one");
    (Flt, "olt"); (Fle, "ole"); (Fgt, "ogt"); (Fge, "oge") ]

let cast_names =
  [ (Trunc, "trunc"); (Zext, "zext"); (Sext, "sext");
    (Fptrunc, "fptrunc"); (Fpext, "fpext");
    (Fptosi, "fptosi"); (Sitofp, "sitofp");
    (Fptoui, "fptoui"); (Uitofp, "uitofp");
    (Ptrtoint, "ptrtoint"); (Inttoptr, "inttoptr");
    (Bitcast, "bitcast") ]

let binop_name op = List.assoc op binop_names
let icmp_name op = List.assoc op icmp_names
let fcmp_name op = List.assoc op fcmp_names
let cast_name op = List.assoc op cast_names

let gep_index_to_string = function
  | Gfield (i, off) -> Printf.sprintf "field %d (+%d)" i off
  | Gindex (v, stride) -> Printf.sprintf "idx %s x%d" (value_to_string v) stride

let instr_to_string i =
  let v = value_to_string in
  match i with
  | Alloca (r, mty) ->
    Printf.sprintf "%%%d = alloca %s" r (Irtype.mty_to_string mty)
  | Load (r, s, p) ->
    Printf.sprintf "%%%d = load %s, %s" r (Irtype.scalar_to_string s) (v p)
  | Store (s, x, p) ->
    Printf.sprintf "store %s %s, %s" (Irtype.scalar_to_string s) (v x) (v p)
  | Gep (r, base, idx) ->
    Printf.sprintf "%%%d = gep %s [%s]" r (v base)
      (String.concat ", " (List.map gep_index_to_string idx))
  | Binop (r, op, s, a, b) ->
    Printf.sprintf "%%%d = %s %s %s, %s" r (binop_name op)
      (Irtype.scalar_to_string s) (v a) (v b)
  | Icmp (r, op, s, a, b) ->
    Printf.sprintf "%%%d = icmp %s %s %s, %s" r (icmp_name op)
      (Irtype.scalar_to_string s) (v a) (v b)
  | Fcmp (r, op, s, a, b) ->
    Printf.sprintf "%%%d = fcmp %s %s %s, %s" r (fcmp_name op)
      (Irtype.scalar_to_string s) (v a) (v b)
  | Cast (r, op, from, into, x) ->
    Printf.sprintf "%%%d = %s %s %s to %s" r (cast_name op)
      (Irtype.scalar_to_string from) (v x) (Irtype.scalar_to_string into)
  | Call (r, ret, callee, args) ->
    let callee_s =
      match callee with Direct f -> "@" ^ f | Indirect x -> v x
    in
    let args_s =
      String.concat ", "
        (List.map
           (fun (s, x) -> Irtype.scalar_to_string s ^ " " ^ v x)
           args)
    in
    let ret_s =
      match ret with Some s -> Irtype.scalar_to_string s | None -> "void"
    in
    (match r with
    | Some r -> Printf.sprintf "%%%d = call %s %s(%s)" r ret_s callee_s args_s
    | None -> Printf.sprintf "call %s %s(%s)" ret_s callee_s args_s)
  | Phi (r, s, incoming) ->
    Printf.sprintf "%%%d = phi %s %s" r (Irtype.scalar_to_string s)
      (String.concat ", "
         (List.map (fun (l, x) -> Printf.sprintf "[%s: %s]" l (v x)) incoming))
  | Sancheck (kind, p, size) ->
    Printf.sprintf "sancheck %s %s, %d"
      (match kind with AccLoad -> "load" | AccStore -> "store")
      (v p) size
  | Srcloc (line, col) -> Printf.sprintf "loc %d:%d" line col

let term_to_string = function
  | Ret (Some (s, x)) ->
    Printf.sprintf "ret %s %s" (Irtype.scalar_to_string s) (value_to_string x)
  | Ret None -> "ret void"
  | Br l -> "br " ^ l
  | Condbr (c, a, b) ->
    Printf.sprintf "br %s, %s, %s" (value_to_string c) a b
  | Switch (x, cases, default) ->
    Printf.sprintf "switch %s, default %s [%s]" (value_to_string x) default
      (String.concat "; "
         (List.map (fun (v, l) -> Printf.sprintf "%Ld: %s" v l) cases))
  | Unreachable -> "unreachable"

let func_to_string (f : Irfunc.t) =
  let buf = Buffer.create 512 in
  let params =
    String.concat ", "
      (List.map
         (fun (r, s) -> Printf.sprintf "%s %%%d" (Irtype.scalar_to_string s) r)
         f.Irfunc.params)
  in
  let ret =
    match f.Irfunc.ret with
    | Some s -> Irtype.scalar_to_string s
    | None -> "void"
  in
  Buffer.add_string buf
    (Printf.sprintf "define %s @%s(%s%s) {\n" ret f.Irfunc.name params
       (if f.Irfunc.variadic then ", ..." else ""));
  List.iter
    (fun (b : Irfunc.block) ->
      Buffer.add_string buf (b.label ^ ":\n");
      List.iter
        (fun i -> Buffer.add_string buf ("  " ^ instr_to_string i ^ "\n"))
        b.instrs;
      Buffer.add_string buf ("  " ^ term_to_string b.term ^ "\n"))
    f.Irfunc.blocks;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let rec ginit_to_string = function
  | Irmod.Gzero -> "zeroinitializer"
  | Irmod.Gint v -> Int64.to_string v
  | Irmod.Gfloat f -> Printf.sprintf "%h" f
  | Irmod.Garray xs ->
    "[" ^ String.concat ", " (List.map ginit_to_string xs) ^ "]"
  | Irmod.Gstruct_init xs ->
    "{" ^ String.concat ", " (List.map ginit_to_string xs) ^ "}"
  | Irmod.Gstring s -> Printf.sprintf "c%S" s
  | Irmod.Gglobal_addr g -> "@" ^ g
  | Irmod.Gfunc_addr f -> "@" ^ f

(* Collect every struct type mentioned in the module (global types and
   alloca operands), so the dump is self-contained and re-parseable. *)
let collect_structs (m : Irmod.t) : Irtype.mstruct list =
  let seen = Hashtbl.create 8 in
  let order = ref [] in
  let rec walk (ty : Irtype.mty) =
    match ty with
    | Irtype.MScalar _ -> ()
    | Irtype.MArray (elem, _) -> walk elem
    | Irtype.MStruct s ->
      if not (Hashtbl.mem seen s.Irtype.s_tag) then begin
        Hashtbl.replace seen s.Irtype.s_tag ();
        List.iter (fun f -> walk f.Irtype.mf_ty) s.Irtype.s_fields;
        order := s :: !order
      end
  in
  List.iter (fun (g : Irmod.global) -> walk g.Irmod.g_ty) m.Irmod.globals;
  List.iter
    (fun f ->
      Irfunc.iter_instrs f (fun _ i ->
          match i with Instr.Alloca (_, mty) -> walk mty | _ -> ()))
    m.Irmod.funcs;
  List.rev !order

let mstruct_to_string (s : Irtype.mstruct) =
  Printf.sprintf "%%struct.%s = type { %s } size %d align %d" s.Irtype.s_tag
    (String.concat ", "
       (List.map
          (fun (f : Irtype.mfield) ->
            Printf.sprintf "%s %s @%d" (Irtype.mty_to_string f.Irtype.mf_ty)
              f.Irtype.mf_name f.Irtype.mf_off)
          s.Irtype.s_fields))
    s.Irtype.s_size s.Irtype.s_align

let module_to_string (m : Irmod.t) =
  let buf = Buffer.create 4096 in
  List.iter
    (fun s -> Buffer.add_string buf (mstruct_to_string s ^ "\n"))
    (collect_structs m);
  List.iter
    (fun (g : Irmod.global) ->
      Buffer.add_string buf
        (Printf.sprintf "@%s = global %s %s\n" g.g_name
           (Irtype.mty_to_string g.g_ty)
           (ginit_to_string g.g_init)))
    m.Irmod.globals;
  List.iter
    (fun (e : Irmod.extern_decl) ->
      let ret =
        match e.Irmod.e_ret with
        | Some s -> Irtype.scalar_to_string s
        | None -> "void"
      in
      Buffer.add_string buf
        (Printf.sprintf "declare %s @%s(%s%s)\n" ret e.e_name
           (String.concat ", " (List.map Irtype.scalar_to_string e.e_params))
           (if e.e_variadic then ", ..." else "")))
    m.Irmod.externs;
  List.iter
    (fun f -> Buffer.add_string buf ("\n" ^ func_to_string f))
    m.Irmod.funcs;
  Buffer.contents buf
