(** Parser for the textual IR that [Irprint] emits — the repository's
    `llvm-as` to Irprint's `llvm-dis`.  Round trip guaranteed:
    [parse (Irprint.module_to_string m)] is structurally identical to
    [m] apart from what the text does not carry (source positions,
    [next_reg]), float bits included.  The tests check that on the
    corpus, the benchmark programs at -O0 and -O3, ASan-instrumented
    code and generated programs, so IR can be dumped, stored,
    hand-edited and re-executed.

    The grammar is exactly Irprint's output.  An [@name] resolves to a
    function or a global where it is parsed, from one pre-scan of the
    top-level names.  Any malformed input raises [Parse_error] with its
    line number — a property test feeds mutated [Irprint] output. *)

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

let is_word_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_' || c = '.' || c = '%' || c = '@' || c = '-' || c = '+'

let tokenize_line lineno (s : string) : tok list =
  let n = String.length s in
  let toks = ref [] in
  let i = ref 0 in
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
            (* %S writes exactly three digits, at most 255 *)
            let digits = if !i + 4 <= n then String.sub s (!i + 1) 3 else "" in
            let is_digit c = c >= '0' && c <= '9' in
            if digits = "" || (not (String.for_all is_digit digits))
               || int_of_string digits > 255
            then fail lineno "bad decimal escape \\%s" digits;
            Buffer.add_char buf (Char.chr (int_of_string digits));
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

let expect_keyword st kw =
  match expect_word st with
  | w when w = kw -> ()
  | w -> fail st.line "expected '%s', got %S" kw w

let expect_int st =
  let w = expect_word st in
  match int_of_string_opt w with
  | Some n -> n
  | None -> fail st.line "expected an integer, got %S" w

let expect_int64 st =
  let w = expect_word st in
  match Int64.of_string_opt w with
  | Some n -> n
  | None -> fail st.line "expected an integer, got %S" w

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

(* The module's names: struct types as their headers are parsed, and
   the pre-scanned function and global names an [@name] resolves
   against. *)
type env = {
  structs : (string, Irtype.mstruct) Hashtbl.t;
  funcs : (string, unit) Hashtbl.t;  (** defined and declared *)
  globals : (string, unit) Hashtbl.t;
}

let rec parse_mty env st : Irtype.mty =
  if accept_punct st '[' then begin
    (* [N x mty] *)
    let n = expect_int st in
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

(* A value: %N | @name | null | <scalar> <number>. *)
let parse_value env st : Instr.value =
  let w = expect_word st in
  if w = "null" then Instr.Null
  else if w.[0] = '%' then Instr.Reg (reg_of_word st w)
  else if w.[0] = '@' then begin
    let name = String.sub w 1 (String.length w - 1) in
    if Hashtbl.mem env.funcs name then Instr.FuncAddr name
    else Instr.GlobalAddr name
  end
  else if is_scalar_word w then begin
    let s = scalar_of_word st w in
    if Irtype.is_float_scalar s then begin
      let lit = expect_word st in
      match float_of_string_opt lit with
      | Some f -> Instr.ImmFloat (f, s)
      | None -> fail st.line "bad float literal %S" lit
    end
    else Instr.ImmInt (Scalar.normalize_int s (expect_int64 st), s)
  end
  else fail st.line "expected a value, got %S" w

(* An opcode or predicate from its [Irprint] spelling. *)
let opcode names w = List.find_map (fun (op, n) -> if n = w then Some op else None) names

let predicate st names kind =
  let w = expect_word st in
  match opcode names w with
  | Some p -> p
  | None -> fail st.line "unknown %s predicate %S" kind w

(* ------------------------------------------------------------------ *)
(* Instructions                                                        *)
(* ------------------------------------------------------------------ *)

let parse_call env st (result : Instr.reg option) : Instr.instr =
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
      let v = parse_value env st in
      args := (s, v) :: !args;
      if accept_punct st ',' then loop () else expect_punct st ')'
    in
    loop ()
  end;
  Instr.Call (result, ret, callee, List.rev !args)

let parse_gep_indices env st : Instr.gep_index list =
  expect_punct st '[';
  let indices = ref [] in
  if not (accept_punct st ']') then begin
    let rec loop () =
      (match expect_word st with
      | "field" ->
        let idx = expect_int st in
        expect_punct st '(';
        (* printed as (+N) *)
        let off = expect_int st in
        expect_punct st ')';
        indices := Instr.Gfield (idx, off) :: !indices
      | "idx" ->
        let v = parse_value env st in
        let stride_w = expect_word st in
        let stride =
          if String.length stride_w < 2 || stride_w.[0] <> 'x' then None
          else int_of_string_opt (String.sub stride_w 1 (String.length stride_w - 1))
        in
        (match stride with
        | Some stride -> indices := Instr.Gindex (v, stride) :: !indices
        | None -> fail st.line "expected xN stride, got %S" stride_w)
      | w -> fail st.line "expected gep index, got %S" w);
      if accept_punct st ',' then loop () else expect_punct st ']'
    in
    loop ()
  end;
  List.rev !indices

let parse_instr env st : Instr.instr =
  let value () = parse_value env st in
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
      Instr.Gep (r, base, parse_gep_indices env st)
    | "icmp" ->
      let cmp = predicate st Irprint.icmp_names "icmp" in
      let s = scalar_of_word st (expect_word st) in
      let a = value () in
      expect_punct st ',';
      Instr.Icmp (r, cmp, s, a, value ())
    | "fcmp" ->
      let cmp = predicate st Irprint.fcmp_names "fcmp" in
      let s = scalar_of_word st (expect_word st) in
      let a = value () in
      expect_punct st ',';
      Instr.Fcmp (r, cmp, s, a, value ())
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
    | "call" -> parse_call env st (Some r)
    | op -> begin
      match (opcode Irprint.binop_names op, opcode Irprint.cast_names op) with
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
    | "call" -> parse_call env st None
    | "sancheck" ->
      let kind =
        match expect_word st with
        | "load" -> Instr.AccLoad
        | "store" -> Instr.AccStore
        | w -> fail st.line "unknown sancheck kind %S" w
      in
      let p = value () in
      expect_punct st ',';
      Instr.Sancheck (kind, p, expect_int st)
    | "loc" ->
      let line = expect_int st in
      expect_punct st ':';
      Instr.Srcloc (line, expect_int st)
    | w -> fail st.line "unknown instruction %S" w
  end

let parse_terminator env st : Instr.terminator =
  let value () = parse_value env st in
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
    expect_keyword st "default";
    let default = expect_word st in
    expect_punct st '[';
    let cases = ref [] in
    if not (accept_punct st ']') then begin
      let rec loop () =
        let k = expect_int64 st in
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
let parse_terminator_line env lineno toks : Instr.terminator =
  match toks with
  | [ Tword "br"; Tword label ]
    when label.[0] <> '%' && label.[0] <> '@' && label <> "null" ->
    Instr.Br label
  | _ -> parse_terminator env { toks; line = lineno }

(* ------------------------------------------------------------------ *)
(* Globals                                                             *)
(* ------------------------------------------------------------------ *)

let rec parse_ginit env st : Irmod.ginit =
  let items close =
    let items = ref [] in
    if not (accept_punct st close) then begin
      let rec loop () =
        items := parse_ginit env st :: !items;
        if accept_punct st ',' then loop () else expect_punct st close
      in
      loop ()
    end;
    List.rev !items
  in
  if at_end st then fail st.line "expected a global initializer";
  match next st with
  | Tstring s -> Irmod.Gstring s
  | Tpunct '[' -> Irmod.Garray (items ']')
  | Tpunct '{' -> Irmod.Gstruct_init (items '}')
  | Tword "zeroinitializer" -> Irmod.Gzero
  | Tword w when w.[0] = '@' ->
    let name = String.sub w 1 (String.length w - 1) in
    if Hashtbl.mem env.funcs name && not (Hashtbl.mem env.globals name) then
      Irmod.Gfunc_addr name
    else Irmod.Gglobal_addr name
  | Tword w -> begin
    (* [Irprint] writes a float in hex with an exponent, never in an
       integer's shape *)
    match Int64.of_string_opt w with
    | Some v -> Irmod.Gint v
    | None -> begin
      match float_of_string_opt w with
      | Some f -> Irmod.Gfloat f
      | None -> fail st.line "bad initializer literal %S" w
    end
  end
  | Tpunct _ -> fail st.line "expected a global initializer"

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)
(* ------------------------------------------------------------------ *)

let has_prefix prefix line =
  String.length line > String.length prefix
  && String.sub line 0 (String.length prefix) = prefix

(* The [@name] word of a define, declare or global line. *)
let declared_name line =
  match String.index_opt line '@' with
  | None -> None
  | Some at ->
    let stop = ref (at + 1) in
    while !stop < String.length line && is_word_char line.[!stop] do
      incr stop
    done;
    Some (String.sub line (at + 1) (!stop - at - 1))

let parse (text : string) : Irmod.t =
  let env =
    { structs = Hashtbl.create 8; funcs = Hashtbl.create 32;
      globals = Hashtbl.create 32 }
  in
  let m = Irmod.create () in
  let lines = String.split_on_char '\n' text in
  (* Pre-scan the function and global names, so every @name resolves
     where it is parsed. *)
  List.iter
    (fun line ->
      let line = String.trim line in
      let table =
        if has_prefix "define " line || has_prefix "declare " line then
          Some env.funcs
        else if line <> "" && line.[0] = '@' then Some env.globals
        else None
      in
      match (table, declared_name line) with
      | Some t, Some n -> Hashtbl.replace t n ()
      | _ -> ())
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
  (* "(p, p, ...)": [param] parses one p; a trailing "..." marks the
     function variadic *)
  let parse_params st param =
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
          params := param st :: !params;
          if accept_punct st ',' then loop () else expect_punct st ')'
      in
      loop ()
    end;
    (List.rev !params, !variadic)
  in
  let ret_of st =
    match expect_word st with "void" -> None | w -> Some (scalar_of_word st w)
  in
  let name_of st =
    let w = expect_word st in
    String.sub w 1 (String.length w - 1)
  in
  let rest_of prefix line lineno =
    let n = String.length prefix in
    { toks = tokenize_line lineno (String.sub line n (String.length line - n));
      line = lineno }
  in
  List.iteri
    (fun idx raw ->
      let lineno = idx + 1 in
      let line = String.trim raw in
      if line = "" then ()
      else if has_prefix "%struct." line && String.contains line '=' then begin
        (* %struct.tag = type { fields } size N align M *)
        let st = { toks = tokenize_line lineno line; line = lineno } in
        let head = expect_word st in
        let tag = String.sub head 8 (String.length head - 8) in
        expect_punct st '=';
        expect_keyword st "type";
        expect_punct st '{';
        let fields = ref [] in
        if not (accept_punct st '}') then begin
          let rec loop () =
            let fty = parse_mty env st in
            let fname = expect_word st in
            let off_w = expect_word st in
            let off =
              if off_w.[0] <> '@' then None
              else int_of_string_opt (String.sub off_w 1 (String.length off_w - 1))
            in
            let off =
              match off with Some off -> off | None -> fail lineno "expected @offset"
            in
            fields :=
              { Irtype.mf_name = fname; mf_ty = fty; mf_off = off } :: !fields;
            if accept_punct st ',' then loop () else expect_punct st '}'
          in
          loop ()
        end;
        expect_keyword st "size";
        let size = expect_int st in
        expect_keyword st "align";
        let align = expect_int st in
        Hashtbl.replace env.structs tag
          { Irtype.s_tag = tag; s_fields = List.rev !fields; s_size = size;
            s_align = align }
      end
      else if line.[0] = '@' then begin
        (* @name = global <mty> <init> *)
        let st = { toks = tokenize_line lineno line; line = lineno } in
        let name = name_of st in
        expect_punct st '=';
        expect_keyword st "global";
        let gty = parse_mty env st in
        let ginit = parse_ginit env st in
        Irmod.add_global m { Irmod.g_name = name; g_ty = gty; g_init = ginit }
      end
      else if has_prefix "declare " line then begin
        let st = rest_of "declare " line lineno in
        let e_ret = ret_of st in
        let e_name = name_of st in
        let params, variadic =
          parse_params st (fun st -> scalar_of_word st (expect_word st))
        in
        Irmod.add_extern m
          { Irmod.e_name; e_ret; e_params = params; e_variadic = variadic }
      end
      else if has_prefix "define " line then begin
        let st = rest_of "define " line lineno in
        let ret = ret_of st in
        let name = name_of st in
        let params, variadic =
          parse_params st (fun st ->
              let s = scalar_of_word st (expect_word st) in
              (reg_of_word st (expect_word st), s))
        in
        expect_punct st '{';
        current :=
          Some
            {
              Irfunc.name;
              params;
              ret;
              variadic;
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
          match toks with
          | Tword ("ret" | "br" | "switch" | "unreachable") :: _ ->
            b.Irfunc.term <- parse_terminator_line env lineno toks
          | _ ->
            pending_instrs :=
              parse_instr env { toks; line = lineno } :: !pending_instrs
        end
      end)
    lines;
  m
