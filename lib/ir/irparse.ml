(** Parser for the textual IR that [Irprint] emits — the repository's
    `llvm-as` to Irprint's `llvm-dis`.  Round trip guaranteed:
    [parse (Irprint.module_to_string m)] is structurally identical to
    [m] (asserted by property tests), so IR can be dumped, stored,
    hand-edited and re-executed.

    The grammar is exactly Irprint's output; error messages carry the
    line number. *)

exception Parse_error of int * string

let fail line fmt =
  Format.kasprintf (fun msg -> raise (Parse_error (line, msg))) fmt

(* ------------------------------------------------------------------ *)
(* Line-level tokenizer                                                *)
(* ------------------------------------------------------------------ *)

type tok =
  | Tword of string   (** identifiers, keywords, numbers, %1, @name *)
  | Tpunct of char    (** ( ) [ ] { } , : ; = *)
  | Tstring of string (** c"..." payload, unescaped *)

let tokenize_line lineno (s : string) : tok list =
  let n = String.length s in
  let toks = ref [] in
  let i = ref 0 in
  let is_word_char c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    || c = '_' || c = '.' || c = '%' || c = '@' || c = '-' || c = '+'
  in
  while !i < n do
    let c = s.[!i] in
    if c = ' ' || c = '\t' then incr i
    else if c = 'c' && !i + 1 < n && s.[!i + 1] = '"' then begin
      (* c"..." byte string with OCaml-style escapes (Printf %S) *)
      let buf = Buffer.create 16 in
      i := !i + 2;
      let fin = ref false in
      while not !fin do
        if !i >= n then fail lineno "unterminated byte string"
        else if s.[!i] = '"' then begin
          incr i;
          fin := true
        end
        else if s.[!i] = '\\' then begin
          if !i + 1 >= n then fail lineno "truncated escape";
          (match s.[!i + 1] with
          | 'n' ->
            Buffer.add_char buf '\n';
            i := !i + 2
          | 't' ->
            Buffer.add_char buf '\t';
            i := !i + 2
          | 'r' ->
            Buffer.add_char buf '\r';
            i := !i + 2
          | '\\' ->
            Buffer.add_char buf '\\';
            i := !i + 2
          | '"' ->
            Buffer.add_char buf '"';
            i := !i + 2
          | '\'' ->
            Buffer.add_char buf '\'';
            i := !i + 2
          | c when c >= '0' && c <= '9' ->
            if !i + 3 >= n + 1 then fail lineno "truncated decimal escape";
            let code = int_of_string (String.sub s (!i + 1) 3) in
            Buffer.add_char buf (Char.chr code);
            i := !i + 4
          | c -> fail lineno "unknown escape \\%c" c)
        end
        else begin
          Buffer.add_char buf s.[!i];
          incr i
        end
      done;
      toks := Tstring (Buffer.contents buf) :: !toks
    end
    else if is_word_char c then begin
      let start = !i in
      while !i < n && is_word_char s.[!i] do
        incr i
      done;
      toks := Tword (String.sub s start (!i - start)) :: !toks
    end
    else begin
      match c with
      | '(' | ')' | '[' | ']' | '{' | '}' | ',' | ':' | ';' | '=' ->
        toks := Tpunct c :: !toks;
        incr i
      | c -> fail lineno "unexpected character %C" c
    end
  done;
  List.rev !toks

(* ------------------------------------------------------------------ *)
(* Token-stream helpers                                                *)
(* ------------------------------------------------------------------ *)

type stream = { mutable toks : tok list; line : int }

let peek st = match st.toks with t :: _ -> Some t | [] -> None

let next st =
  match st.toks with
  | t :: rest ->
    st.toks <- rest;
    t
  | [] -> fail st.line "unexpected end of line"

let expect_word st =
  match next st with
  | Tword w -> w
  | _ -> fail st.line "expected a word"

let expect_punct st c =
  match next st with
  | Tpunct p when p = c -> ()
  | _ -> fail st.line "expected %C" c

let accept_punct st c =
  match peek st with
  | Some (Tpunct p) when p = c ->
    ignore (next st);
    true
  | _ -> false

let at_end st = st.toks = []

(* ------------------------------------------------------------------ *)
(* Types and values                                                    *)
(* ------------------------------------------------------------------ *)

let scalar_of_word st = function
  | "i1" -> Irtype.I1
  | "i8" -> Irtype.I8
  | "i16" -> Irtype.I16
  | "i32" -> Irtype.I32
  | "i64" -> Irtype.I64
  | "float" -> Irtype.F32
  | "double" -> Irtype.F64
  | "ptr" -> Irtype.Ptr
  | w -> fail st.line "unknown scalar type %S" w

let is_scalar_word = function
  | "i1" | "i8" | "i16" | "i32" | "i64" | "float" | "double" | "ptr" -> true
  | _ -> false

(* struct table built while parsing "%struct.x = type ..." headers *)
type env = { structs : (string, Irtype.mstruct) Hashtbl.t }

let rec parse_mty env st : Irtype.mty =
  if accept_punct st '[' then begin
    (* [N x mty] *)
    let n = int_of_string (expect_word st) in
    (match next st with
    | Tword "x" -> ()
    | _ -> fail st.line "expected 'x' in array type");
    let elem = parse_mty env st in
    expect_punct st ']';
    Irtype.MArray (elem, n)
  end
  else begin
    let w = expect_word st in
    if String.length w > 8 && String.sub w 0 8 = "%struct." then begin
      let tag = String.sub w 8 (String.length w - 8) in
      match Hashtbl.find_opt env.structs tag with
      | Some s -> Irtype.MStruct s
      | None -> fail st.line "unknown struct type %%struct.%s" tag
    end
    else Irtype.MScalar (scalar_of_word st w)
  end

let reg_of_word st w =
  if String.length w > 1 && w.[0] = '%' then
    match int_of_string_opt (String.sub w 1 (String.length w - 1)) with
    | Some r -> r
    | None -> fail st.line "bad register %S" w
  else fail st.line "expected a register, got %S" w

(* A value: %N | @name | null | <scalar> <number>.  Caller resolves
   whether @name is a global or a function. *)
let parse_value env ~globals ~funcs st : Instr.value =
  ignore env;
  let w = expect_word st in
  if w = "null" then Instr.Null
  else if w.[0] = '%' then Instr.Reg (reg_of_word st w)
  else if w.[0] = '@' then begin
    let name = String.sub w 1 (String.length w - 1) in
    if Hashtbl.mem funcs name then Instr.FuncAddr name
    else if Hashtbl.mem globals name then Instr.GlobalAddr name
    else
      (* forward reference: default to global; a second pass fixes
         function addresses *)
      Instr.GlobalAddr name
  end
  else if is_scalar_word w then begin
    let s = scalar_of_word st w in
    let lit = expect_word st in
    if Irtype.is_float_scalar s then Instr.ImmFloat (float_of_string lit, s)
    else Instr.ImmInt (Scalar.normalize_int s (Int64.of_string lit), s)
  end
  else fail st.line "expected a value, got %S" w

(* ------------------------------------------------------------------ *)
(* Opcode tables (inverse of Irprint's)                                *)
(* ------------------------------------------------------------------ *)

let binop_of_name = function
  | "add" -> Some Instr.Add
  | "sub" -> Some Instr.Sub
  | "mul" -> Some Instr.Mul
  | "sdiv" -> Some Instr.Sdiv
  | "udiv" -> Some Instr.Udiv
  | "srem" -> Some Instr.Srem
  | "urem" -> Some Instr.Urem
  | "shl" -> Some Instr.Shl
  | "lshr" -> Some Instr.Lshr
  | "ashr" -> Some Instr.Ashr
  | "and" -> Some Instr.And
  | "or" -> Some Instr.Or
  | "xor" -> Some Instr.Xor
  | "fadd" -> Some Instr.FAdd
  | "fsub" -> Some Instr.FSub
  | "fmul" -> Some Instr.FMul
  | "fdiv" -> Some Instr.FDiv
  | _ -> None

let icmp_of_name = function
  | "eq" -> Instr.Ieq
  | "ne" -> Instr.Ine
  | "slt" -> Instr.Islt
  | "sle" -> Instr.Isle
  | "sgt" -> Instr.Isgt
  | "sge" -> Instr.Isge
  | "ult" -> Instr.Iult
  | "ule" -> Instr.Iule
  | "ugt" -> Instr.Iugt
  | "uge" -> Instr.Iuge
  | c -> failwith ("irparse: unknown icmp " ^ c)

let fcmp_of_name = function
  | "oeq" -> Instr.Feq
  | "one" -> Instr.Fne
  | "olt" -> Instr.Flt
  | "ole" -> Instr.Fle
  | "ogt" -> Instr.Fgt
  | "oge" -> Instr.Fge
  | c -> failwith ("irparse: unknown fcmp " ^ c)

let cast_of_name = function
  | "trunc" -> Some Instr.Trunc
  | "zext" -> Some Instr.Zext
  | "sext" -> Some Instr.Sext
  | "fptrunc" -> Some Instr.Fptrunc
  | "fpext" -> Some Instr.Fpext
  | "fptosi" -> Some Instr.Fptosi
  | "sitofp" -> Some Instr.Sitofp
  | "fptoui" -> Some Instr.Fptoui
  | "uitofp" -> Some Instr.Uitofp
  | "ptrtoint" -> Some Instr.Ptrtoint
  | "inttoptr" -> Some Instr.Inttoptr
  | "bitcast" -> Some Instr.Bitcast
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Instructions                                                        *)
(* ------------------------------------------------------------------ *)

let parse_call env ~globals ~funcs st (result : Instr.reg option) : Instr.instr =
  (* call <ret|void> <callee>(args) *)
  let ret_w = expect_word st in
  let ret = if ret_w = "void" then None else Some (scalar_of_word st ret_w) in
  let callee_w = expect_word st in
  let callee =
    if callee_w.[0] = '@' then
      Instr.Direct (String.sub callee_w 1 (String.length callee_w - 1))
    else Instr.Indirect (Instr.Reg (reg_of_word st callee_w))
  in
  expect_punct st '(';
  let args = ref [] in
  if not (accept_punct st ')') then begin
    let rec loop () =
      let s = scalar_of_word st (expect_word st) in
      let v = parse_value env ~globals ~funcs st in
      args := (s, v) :: !args;
      if accept_punct st ',' then loop () else expect_punct st ')'
    in
    loop ()
  end;
  Instr.Call (result, ret, callee, List.rev !args)

let parse_gep_indices env ~globals ~funcs st : Instr.gep_index list =
  expect_punct st '[';
  let indices = ref [] in
  if not (accept_punct st ']') then begin
    let rec loop () =
      (match expect_word st with
      | "field" ->
        let idx = int_of_string (expect_word st) in
        expect_punct st '(';
        let off_w = expect_word st in
        (* printed as (+N) *)
        let off = int_of_string off_w in
        expect_punct st ')';
        indices := Instr.Gfield (idx, off) :: !indices
      | "idx" ->
        let v = parse_value env ~globals ~funcs st in
        let stride_w = expect_word st in
        if String.length stride_w < 2 || stride_w.[0] <> 'x' then
          fail st.line "expected xN stride, got %S" stride_w;
        let stride = int_of_string (String.sub stride_w 1 (String.length stride_w - 1)) in
        indices := Instr.Gindex (v, stride) :: !indices
      | w -> fail st.line "expected gep index, got %S" w);
      if accept_punct st ',' then loop () else expect_punct st ']'
    in
    loop ()
  end;
  List.rev !indices

let parse_instr env ~globals ~funcs st : Instr.instr =
  let value () = parse_value env ~globals ~funcs st in
  let first = expect_word st in
  if first.[0] = '%' then begin
    (* %N = <op> ... *)
    let r = reg_of_word st first in
    expect_punct st '=';
    let op = expect_word st in
    match op with
    | "alloca" -> Instr.Alloca (r, parse_mty env st)
    | "load" ->
      let s = scalar_of_word st (expect_word st) in
      expect_punct st ',';
      Instr.Load (r, s, value ())
    | "gep" ->
      let base = value () in
      Instr.Gep (r, base, parse_gep_indices env ~globals ~funcs st)
    | "icmp" ->
      let cmp = icmp_of_name (expect_word st) in
      let s = scalar_of_word st (expect_word st) in
      let a = value () in
      expect_punct st ',';
      Instr.Icmp (r, cmp, s, a, value ())
    | "fcmp" ->
      let cmp = fcmp_of_name (expect_word st) in
      let s = scalar_of_word st (expect_word st) in
      let a = value () in
      expect_punct st ',';
      Instr.Fcmp (r, cmp, s, a, value ())
    | "select" ->
      let s = scalar_of_word st (expect_word st) in
      let c = value () in
      expect_punct st ',';
      let a = value () in
      expect_punct st ',';
      Instr.Select (r, s, c, a, value ())
    | "phi" ->
      let s = scalar_of_word st (expect_word st) in
      let incoming = ref [] in
      let rec loop () =
        expect_punct st '[';
        let label = expect_word st in
        expect_punct st ':';
        let v = value () in
        expect_punct st ']';
        incoming := (label, v) :: !incoming;
        if accept_punct st ',' then loop ()
      in
      loop ();
      Instr.Phi (r, s, List.rev !incoming)
    | "call" -> parse_call env ~globals ~funcs st (Some r)
    | op -> begin
      match (binop_of_name op, cast_of_name op) with
      | Some bop, _ ->
        let s = scalar_of_word st (expect_word st) in
        let a = value () in
        expect_punct st ',';
        Instr.Binop (r, bop, s, a, value ())
      | None, Some cop ->
        let from = scalar_of_word st (expect_word st) in
        let v = value () in
        (match next st with
        | Tword "to" -> ()
        | _ -> fail st.line "expected 'to' in cast");
        let into = scalar_of_word st (expect_word st) in
        Instr.Cast (r, cop, from, into, v)
      | None, None -> fail st.line "unknown opcode %S" op
    end
  end
  else begin
    match first with
    | "store" ->
      let s = scalar_of_word st (expect_word st) in
      let v = value () in
      expect_punct st ',';
      Instr.Store (s, v, value ())
    | "call" -> parse_call env ~globals ~funcs st None
    | "sancheck" ->
      let kind =
        match expect_word st with
        | "load" -> Instr.AccLoad
        | "store" -> Instr.AccStore
        | w -> fail st.line "unknown sancheck kind %S" w
      in
      let p = value () in
      expect_punct st ',';
      let size = int_of_string (expect_word st) in
      Instr.Sancheck (kind, p, size)
    | "loc" ->
      let line = int_of_string (expect_word st) in
      expect_punct st ':';
      let col = int_of_string (expect_word st) in
      Instr.Srcloc (line, col)
    | w -> fail st.line "unknown instruction %S" w
  end

let parse_terminator env ~globals ~funcs st : Instr.terminator =
  let value () = parse_value env ~globals ~funcs st in
  match expect_word st with
  | "ret" -> begin
    match peek st with
    | Some (Tword "void") ->
      ignore (next st);
      Instr.Ret None
    | _ ->
      let s = scalar_of_word st (expect_word st) in
      Instr.Ret (Some (s, value ()))
  end
  | "br" -> begin
    (* "br label" or "br <value>, a, b" *)
    let first = value () in
    match first with
    | Instr.GlobalAddr _ | Instr.FuncAddr _ ->
      fail st.line "branch target cannot be an address"
    | Instr.Reg _ | Instr.ImmInt _ | Instr.Null | Instr.ImmFloat _ ->
      if at_end st then begin
        (* plain branch printed the label as a bare word; the value
           parser consumed it only if it looked like a value — labels
           are bare words, so re-handle that case below *)
        fail st.line "internal: branch parse"
      end
      else begin
        expect_punct st ',';
        let a = expect_word st in
        expect_punct st ',';
        let b = expect_word st in
        Instr.Condbr (first, a, b)
      end
  end
  | "switch" ->
    let v = value () in
    expect_punct st ',';
    (match expect_word st with
    | "default" -> ()
    | w -> fail st.line "expected 'default', got %S" w);
    let default = expect_word st in
    expect_punct st '[';
    let cases = ref [] in
    if not (accept_punct st ']') then begin
      let rec loop () =
        let k = Int64.of_string (expect_word st) in
        expect_punct st ':';
        let label = expect_word st in
        cases := (k, label) :: !cases;
        if accept_punct st ';' then loop () else expect_punct st ']'
      in
      loop ()
    end;
    Instr.Switch (v, List.rev !cases, default)
  | "unreachable" -> Instr.Unreachable
  | w -> fail st.line "unknown terminator %S" w

(* "br label" prints the label as a bare word that the value parser
   cannot mistake for a value, so handle plain branches before the
   general path. *)
let parse_terminator_line env ~globals ~funcs lineno toks : Instr.terminator =
  match toks with
  | [ Tword "br"; Tword label ]
    when label.[0] <> '%' && label.[0] <> '@' && label <> "null" ->
    Instr.Br label
  | _ -> parse_terminator env ~globals ~funcs { toks; line = lineno }

(* ------------------------------------------------------------------ *)
(* Globals                                                             *)
(* ------------------------------------------------------------------ *)

let rec parse_ginit env st : Irmod.ginit =
  match peek st with
  | Some (Tstring s) ->
    ignore (next st);
    Irmod.Gstring s
  | Some (Tpunct '[') ->
    ignore (next st);
    let items = ref [] in
    if not (accept_punct st ']') then begin
      let rec loop () =
        items := parse_ginit env st :: !items;
        if accept_punct st ',' then loop () else expect_punct st ']'
      in
      loop ()
    end;
    Irmod.Garray (List.rev !items)
  | Some (Tpunct '{') ->
    ignore (next st);
    let items = ref [] in
    if not (accept_punct st '}') then begin
      let rec loop () =
        items := parse_ginit env st :: !items;
        if accept_punct st ',' then loop () else expect_punct st '}'
      in
      loop ()
    end;
    Irmod.Gstruct_init (List.rev !items)
  | Some (Tword w) -> begin
    ignore (next st);
    if w = "zeroinitializer" then Irmod.Gzero
    else if w.[0] = '@' then
      (* resolved to func/global in a fixup pass *)
      Irmod.Gglobal_addr (String.sub w 1 (String.length w - 1))
    else begin
      match Int64.of_string_opt w with
      | Some v -> Irmod.Gint v
      | None -> begin
        match float_of_string_opt w with
        | Some f -> Irmod.Gfloat f
        | None -> fail st.line "bad initializer literal %S" w
      end
    end
  end
  | _ -> fail st.line "expected a global initializer"

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)
(* ------------------------------------------------------------------ *)

let parse (text : string) : Irmod.t =
  let env = { structs = Hashtbl.create 8 } in
  let m = Irmod.create () in
  let globals = Hashtbl.create 32 in
  let funcs = Hashtbl.create 32 in
  let lines = String.split_on_char '\n' text in
  (* Pre-scan for function names so calls and @refs resolve. *)
  List.iteri
    (fun i line ->
      let line = String.trim line in
      let grab_name prefix =
        (* "define ret @name(" / "declare ret @name(" *)
        ignore prefix;
        match String.index_opt line '@' with
        | Some at ->
          let stop =
            match String.index_from_opt line at '(' with
            | Some p -> p
            | None -> String.length line
          in
          Some (String.sub line (at + 1) (stop - at - 1))
        | None -> None
      in
      ignore i;
      if String.length line > 7 && String.sub line 0 7 = "define " then
        Option.iter (fun n -> Hashtbl.replace funcs n ()) (grab_name "define")
      else if String.length line > 8 && String.sub line 0 8 = "declare " then
        Option.iter (fun n -> Hashtbl.replace funcs n ()) (grab_name "declare"))
    lines;
  (* Main pass. *)
  let current : Irfunc.t option ref = ref None in
  let current_block : Irfunc.block option ref = ref None in
  let pending_instrs : Instr.instr list ref = ref [] in
  let flush_block lineno =
    match (!current, !current_block) with
    | Some f, Some b ->
      b.Irfunc.instrs <- List.rev !pending_instrs;
      pending_instrs := [];
      f.Irfunc.blocks <- f.Irfunc.blocks @ [ b ];
      current_block := None
    | _, Some _ -> fail lineno "block outside a function"
    | _, None -> ()
  in
  List.iteri
    (fun idx raw ->
      let lineno = idx + 1 in
      let line = String.trim raw in
      if line = "" then ()
      else if String.length line > 8 && String.sub line 0 8 = "%struct."
              && String.length (String.trim raw) > 0
              && String.contains line '=' then begin
        (* %struct.tag = type { fields } size N align M *)
        let st = { toks = tokenize_line lineno line; line = lineno } in
        let head = expect_word st in
        let tag = String.sub head 8 (String.length head - 8) in
        expect_punct st '=';
        (match expect_word st with
        | "type" -> ()
        | w -> fail lineno "expected 'type', got %S" w);
        expect_punct st '{';
        let fields = ref [] in
        if not (accept_punct st '}') then begin
          let rec loop () =
            let fty = parse_mty env st in
            let fname = expect_word st in
            let off_w = expect_word st in
            if off_w.[0] <> '@' then fail lineno "expected @offset";
            let off = int_of_string (String.sub off_w 1 (String.length off_w - 1)) in
            fields :=
              { Irtype.mf_name = fname; mf_ty = fty; mf_off = off } :: !fields;
            if accept_punct st ',' then loop () else expect_punct st '}'
          in
          loop ()
        end;
        (match expect_word st with
        | "size" -> ()
        | w -> fail lineno "expected 'size', got %S" w);
        let size = int_of_string (expect_word st) in
        (match expect_word st with
        | "align" -> ()
        | w -> fail lineno "expected 'align', got %S" w);
        let align = int_of_string (expect_word st) in
        Hashtbl.replace env.structs tag
          { Irtype.s_tag = tag; s_fields = List.rev !fields; s_size = size;
            s_align = align }
      end
      else if line.[0] = '@' then begin
        (* @name = global <mty> <init> *)
        let st = { toks = tokenize_line lineno line; line = lineno } in
        let name_w = expect_word st in
        let name = String.sub name_w 1 (String.length name_w - 1) in
        expect_punct st '=';
        (match expect_word st with
        | "global" -> ()
        | w -> fail lineno "expected 'global', got %S" w);
        let gty = parse_mty env st in
        let ginit = parse_ginit env st in
        Hashtbl.replace globals name ();
        Irmod.add_global m { Irmod.g_name = name; g_ty = gty; g_init = ginit }
      end
      else if String.length line > 8 && String.sub line 0 8 = "declare " then begin
        let st =
          { toks = tokenize_line lineno (String.sub line 8 (String.length line - 8));
            line = lineno }
        in
        let ret_w = expect_word st in
        let e_ret = if ret_w = "void" then None else Some (scalar_of_word st ret_w) in
        let name_w = expect_word st in
        let e_name = String.sub name_w 1 (String.length name_w - 1) in
        expect_punct st '(';
        let params = ref [] in
        let variadic = ref false in
        if not (accept_punct st ')') then begin
          let rec loop () =
            (match expect_word st with
            | "..." -> variadic := true
            | w -> params := scalar_of_word st w :: !params);
            if accept_punct st ',' then loop () else expect_punct st ')'
          in
          loop ()
        end;
        Irmod.add_extern m
          { Irmod.e_name; e_ret; e_params = List.rev !params;
            e_variadic = !variadic }
      end
      else if String.length line > 7 && String.sub line 0 7 = "define " then begin
        let st =
          { toks = tokenize_line lineno (String.sub line 7 (String.length line - 7));
            line = lineno }
        in
        let ret_w = expect_word st in
        let ret = if ret_w = "void" then None else Some (scalar_of_word st ret_w) in
        let name_w = expect_word st in
        let name = String.sub name_w 1 (String.length name_w - 1) in
        expect_punct st '(';
        let params = ref [] in
        let variadic = ref false in
        if not (accept_punct st ')') then begin
          let rec loop () =
            match peek st with
            | Some (Tword "...") ->
              ignore (next st);
              variadic := true;
              expect_punct st ')'
            | _ ->
              let s = scalar_of_word st (expect_word st) in
              let r = reg_of_word st (expect_word st) in
              params := (r, s) :: !params;
              if accept_punct st ',' then loop () else expect_punct st ')'
          in
          loop ()
        end;
        expect_punct st '{';
        current :=
          Some
            {
              Irfunc.name;
              params = List.rev !params;
              ret;
              variadic = !variadic;
              blocks = [];
              next_reg = 0;
              src_pos = (lineno, 0);
              src_file = "<ir>";
            }
      end
      else if line = "}" then begin
        flush_block lineno;
        match !current with
        | Some f ->
          (* recompute next_reg from defs *)
          let max_reg = ref (-1) in
          List.iter (fun (r, _) -> max_reg := max !max_reg r) f.Irfunc.params;
          Irfunc.iter_instrs f (fun _ i ->
              match Instr.def_of i with
              | Some r -> max_reg := max !max_reg r
              | None -> ());
          f.Irfunc.next_reg <- !max_reg + 1;
          Irmod.add_func m f;
          current := None
        | None -> fail lineno "stray '}'"
      end
      else if String.length line > 1 && line.[String.length line - 1] = ':'
              && not (String.contains line ' ') then begin
        flush_block lineno;
        current_block :=
          Some
            {
              Irfunc.label = String.sub line 0 (String.length line - 1);
              instrs = [];
              term = Instr.Unreachable;
            }
      end
      else begin
        (* an instruction or terminator inside the current block *)
        match !current_block with
        | None -> fail lineno "instruction outside a block: %s" line
        | Some b -> begin
          let toks = tokenize_line lineno line in
          let is_term =
            match toks with
            | Tword ("ret" | "br" | "switch" | "unreachable") :: _ -> true
            | _ -> false
          in
          if is_term then
            b.Irfunc.term <- parse_terminator_line env ~globals ~funcs lineno toks
          else
            pending_instrs :=
              parse_instr env ~globals ~funcs { toks; line = lineno }
              :: !pending_instrs
        end
      end)
    lines;
  (* fix up @refs that name functions but were defaulted to globals *)
  let fix_value v =
    match v with
    | Instr.GlobalAddr n when Hashtbl.mem funcs n && not (Hashtbl.mem globals n)
      ->
      Instr.FuncAddr n
    | v -> v
  in
  List.iter
    (fun f ->
      Irfunc.rewrite_blocks f (fun b ->
          List.map
            (fun i ->
              match i with
              | Instr.Load (r, s, p) -> Instr.Load (r, s, fix_value p)
              | Instr.Store (s, v, p) -> Instr.Store (s, fix_value v, fix_value p)
              | Instr.Gep (r, base, idx) ->
                Instr.Gep
                  ( r,
                    fix_value base,
                    List.map
                      (function
                        | Instr.Gindex (v, st) -> Instr.Gindex (fix_value v, st)
                        | g -> g)
                      idx )
              | Instr.Binop (r, op, s, a, b2) ->
                Instr.Binop (r, op, s, fix_value a, fix_value b2)
              | Instr.Icmp (r, op, s, a, b2) ->
                Instr.Icmp (r, op, s, fix_value a, fix_value b2)
              | Instr.Fcmp (r, op, s, a, b2) ->
                Instr.Fcmp (r, op, s, fix_value a, fix_value b2)
              | Instr.Cast (r, op, from, into, v) ->
                Instr.Cast (r, op, from, into, fix_value v)
              | Instr.Select (r, s, c, a, b2) ->
                Instr.Select (r, s, fix_value c, fix_value a, fix_value b2)
              | Instr.Call (r, ret, callee, args) ->
                let callee =
                  match callee with
                  | Instr.Indirect v -> Instr.Indirect (fix_value v)
                  | c -> c
                in
                Instr.Call (r, ret, callee, List.map (fun (s, v) -> (s, fix_value v)) args)
              | Instr.Phi (r, s, inc) ->
                Instr.Phi (r, s, List.map (fun (l, v) -> (l, fix_value v)) inc)
              | Instr.Sancheck (k, p, size) -> Instr.Sancheck (k, fix_value p, size)
              | (Instr.Alloca _ | Instr.Srcloc _) -> i)
            b.Irfunc.instrs);
      List.iter
        (fun (b : Irfunc.block) ->
          b.Irfunc.term <-
            (match b.Irfunc.term with
            | Instr.Ret (Some (s, v)) -> Instr.Ret (Some (s, fix_value v))
            | Instr.Condbr (c, x, y) -> Instr.Condbr (fix_value c, x, y)
            | Instr.Switch (v, cases, d) -> Instr.Switch (fix_value v, cases, d)
            | t -> t))
        f.Irfunc.blocks)
    m.Irmod.funcs;
  (* ginit @refs to functions *)
  let rec fix_ginit g =
    match g with
    | Irmod.Gglobal_addr n when Hashtbl.mem funcs n && not (Hashtbl.mem globals n)
      ->
      Irmod.Gfunc_addr n
    | Irmod.Garray xs -> Irmod.Garray (List.map fix_ginit xs)
    | Irmod.Gstruct_init xs -> Irmod.Gstruct_init (List.map fix_ginit xs)
    | g -> g
  in
  m.Irmod.globals <-
    List.map
      (fun (g : Irmod.global) -> { g with Irmod.g_init = fix_ginit g.Irmod.g_init })
      m.Irmod.globals;
  m
