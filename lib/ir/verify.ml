(** IR well-formedness checks, run after lowering and after every
    optimization pass in tests.  Catching a malformed module here is much
    cheaper than debugging an engine crash.  The checks are linear in the
    size of the module (a phi's: in its entries times its block's
    predecessors): top-level names resolve through one index built per
    call, and an error message (which may render the offending
    instruction) is built only when its check fails.

    They are the one gate for runnable IR: the engines assume what they
    prove.  Beyond names, that is a block in every function, types and
    operands of the class (integer or float) their operation computes
    on, direct calls whose result and arguments have the classes of the
    callee's declared signature, a phi entry per predecessor and none
    in the entry block, and initializers that fit their types
    ([Irmod.iter_init]).

    A function's or global's check reads only itself and the module's
    names and signatures, so [verify_link] can check just part of a
    linked module: the loader verifies the libc once and, per program,
    the user's globals and functions, and the libc functions that call
    a name the user gave another signature. *)

exception Invalid of string

let fail fmt = Format.kasprintf (fun msg -> raise (Invalid msg)) fmt

(* The module's top-level names, by what may refer to them: [@g] as a
   value or in a global initializer names a global, the only thing the
   engines resolve it to; a function address or a direct callee names a
   function or an extern.  A callee's signature is its return type and
   parameter types; where a function and an extern share a name the
   function's counts, as it is the one the engines call, also when the
   two are in a user module and the library's index [under] it. *)
type signature = Irtype.scalar option * Irtype.scalar list

type names = {
  data : (string, unit) Hashtbl.t;  (** globals *)
  funcs : (string, signature) Hashtbl.t;
  externs : (string, signature) Hashtbl.t;
  under : names option;  (** the library a linked module's rest is *)
}

let index ?under (m : Irmod.t) =
  let data, funcs, externs = Hashtbl.(create 64, create 64, create 64) in
  List.iter (fun g -> Hashtbl.replace data g.Irmod.g_name ()) m.Irmod.globals;
  List.iter
    (fun e -> Hashtbl.replace externs e.Irmod.e_name (e.Irmod.e_ret, e.Irmod.e_params))
    m.Irmod.externs;
  List.iter
    (fun f ->
      Hashtbl.replace funcs f.Irfunc.name (f.Irfunc.ret, List.map snd f.Irfunc.params))
    m.Irmod.funcs;
  { data; funcs; externs; under }

let rec lookup table names n =
  match Hashtbl.find_opt (table names) n with
  | None -> Option.bind names.under (fun u -> lookup table u n)
  | s -> s

(** The signature of the function or extern [n] names. *)
let signature names n =
  match lookup (fun t -> t.funcs) names n with
  | None -> lookup (fun t -> t.externs) names n
  | s -> s

(* Where a checked value occurs: an instruction (rendered into the
   message) or the block's terminator. *)
let site_to_string = function
  | Some i -> Irprint.instr_to_string i
  | None -> "terminator"

let fl = Irtype.is_float_scalar

(* Whether an instruction's types are of the class (integer or float)
   its opcode computes on: every engine stages the opcode's operation
   for that class.  A bitcast takes either. *)
let classes_match (i : Instr.instr) =
  match i with
  | Instr.Binop (_, op, s, _, _) -> (
    match op with
    | Instr.FAdd | Instr.FSub | Instr.FMul | Instr.FDiv -> fl s
    | _ -> not (fl s))
  | Instr.Icmp (_, _, s, _, _) -> not (fl s)
  | Instr.Fcmp (_, _, s, _, _) -> fl s
  | Instr.Cast (_, op, from, into, _) -> (
    match op with
    | Instr.Trunc | Instr.Zext | Instr.Sext | Instr.Ptrtoint | Instr.Inttoptr ->
      not (fl from || fl into)
    | Instr.Fptrunc | Instr.Fpext -> fl from && fl into
    | Instr.Fptosi | Instr.Fptoui -> fl from && not (fl into)
    | Instr.Sitofp | Instr.Uitofp -> (not (fl from)) && fl into
    | Instr.Bitcast -> true)
  | _ -> true

(* Operand classes: a value is a float or an integer, pointers being
   integers to every use (their cookies).  [defines_float i] is the
   class of the register [i] defines; [use_classes i] the class each
   operand must have, in [Instr.uses_of] order: loads, GEPs, integer
   compares and sanitizer checks read integers only. *)
let defines_float (i : Instr.instr) =
  match i with
  | Instr.Load (_, s, _)
  | Instr.Binop (_, _, s, _, _)
  | Instr.Cast (_, _, _, s, _)
  | Instr.Phi (_, s, _)
  | Instr.Call (_, Some s, _, _) -> fl s
  | _ -> false

let use_classes (i : Instr.instr) =
  match i with
  | Instr.Store (s, _, _) -> [ fl s; false ]
  | Instr.Binop (_, _, s, _, _) -> [ fl s; fl s ]
  | Instr.Fcmp _ -> [ true; true ]
  | Instr.Cast (_, _, from, _, _) -> [ fl from ]
  | Instr.Call (_, _, callee, args) ->
    (match callee with Instr.Indirect _ -> [ false ] | Instr.Direct _ -> [])
    @ List.map (fun (s, _) -> fl s) args
  | Instr.Phi (_, s, incoming) -> List.map (fun _ -> fl s) incoming
  | i -> List.map (fun _ -> false) (Instr.uses_of i)

let verify_func names (f : Irfunc.t) =
  if f.Irfunc.blocks = [] then fail "%s: function has no blocks" f.Irfunc.name;
  let labels = List.map (fun b -> b.Irfunc.label) f.Irfunc.blocks in
  let label_set = Hashtbl.create 16 in
  List.iter
    (fun l ->
      if Hashtbl.mem label_set l then
        fail "%s: duplicate block label %s" f.Irfunc.name l;
      Hashtbl.replace label_set l ())
    labels;
  (* Collect all defined registers (params + instruction results), each
     with its class: true for a float. *)
  let defined = Hashtbl.create 64 in
  List.iter (fun (r, s) -> Hashtbl.replace defined r (fl s)) f.Irfunc.params;
  List.iter
    (fun (b : Irfunc.block) ->
      List.iter
        (fun i ->
          match Instr.def_of i with
          | Some r ->
            if Hashtbl.mem defined r then
              fail "%s: register %%%d defined twice" f.Irfunc.name r;
            Hashtbl.replace defined r (defines_float i)
          | None -> ())
        b.instrs)
    f.Irfunc.blocks;
  (* Every block's predecessors (a label once per edge), built at the
     first phi: a phi needs an entry for each. *)
  let preds =
    lazy
      (let t = Hashtbl.create 16 in
       List.iter
         (fun (b : Irfunc.block) ->
           List.iter
             (fun l -> Hashtbl.add t l b.Irfunc.label)
             (Instr.term_successors b.Irfunc.term))
         f.Irfunc.blocks;
       t)
  in
  (* An operand must exist, be canonical and be of the class its use
     computes on ([float]). *)
  let check_use site v float =
    let is_float =
      match v with
      | Instr.Reg r -> (
        match Hashtbl.find defined r with
        | c -> c
        | exception Not_found ->
          fail "%s: %s uses undefined register %%%d" f.Irfunc.name
            (site_to_string site) r)
      | Instr.GlobalAddr g ->
        if lookup (fun t -> t.data) names g = None then
          fail "%s: %s references unknown global @%s" f.Irfunc.name
            (site_to_string site) g;
        false
      | Instr.FuncAddr fn ->
        if signature names fn = None then
          fail "%s: %s references unknown function @%s" f.Irfunc.name
            (site_to_string site) fn;
        false
      | Instr.ImmInt (v, s) ->
        (* every engine and folder computes on canonical values only *)
        if fl s || Scalar.normalize_int s v <> v then
          fail "%s: %s has non-canonical immediate %s %Ld" f.Irfunc.name
            (site_to_string site) (Irtype.scalar_to_string s) v;
        false
      | Instr.ImmFloat _ -> true
      | Instr.Null -> false
    in
    if is_float <> float then
      fail "%s: %s uses %s of the wrong class" f.Irfunc.name
        (site_to_string site) (Irprint.value_to_string v)
  in
  List.iteri
    (fun bi (b : Irfunc.block) ->
      List.iter
        (fun i ->
          if not (classes_match i) then
            fail "%s: %s has a type of the wrong class for its opcode"
              f.Irfunc.name (Irprint.instr_to_string i);
          List.iter2 (check_use (Some i)) (Instr.uses_of i) (use_classes i);
          match i with
          | Instr.Call (_, ret, Instr.Direct callee, args) -> (
            match signature names callee with
            | None -> fail "%s: call to unknown function @%s" f.Irfunc.name callee
            | Some (cret, cparams) ->
              (* the callee computes its result and reads its parameters
                 in the classes it declares *)
              (match (ret, cret) with
              | Some s, Some c when fl s <> fl c ->
                fail "%s: %s has a result of the wrong class for @%s"
                  f.Irfunc.name (Irprint.instr_to_string i) callee
              | _ -> ());
              List.iteri
                (fun k (s, v) ->
                  match List.nth_opt cparams k with
                  | Some p when fl p <> fl s ->
                    fail "%s: %s passes %s of the wrong class to @%s"
                      f.Irfunc.name (Irprint.instr_to_string i)
                      (Irprint.value_to_string v) callee
                  | _ -> ())
                args)
          | Instr.Phi (_, _, incoming) ->
            List.iter
              (fun (l, _) ->
                if not (Hashtbl.mem label_set l) then
                  fail "%s: phi references unknown block %s" f.Irfunc.name l)
              incoming;
            if bi = 0 then
              fail "%s: %s in the entry block" f.Irfunc.name
                (Irprint.instr_to_string i);
            List.iter
              (fun p ->
                if not (List.mem_assoc p incoming) then
                  fail "%s: %s has no entry for predecessor %s" f.Irfunc.name
                    (Irprint.instr_to_string i) p)
              (Hashtbl.find_all (Lazy.force preds) b.Irfunc.label)
          | _ -> ())
        b.instrs;
      let term = b.Irfunc.term in
      (match term with
      | Instr.Ret (Some (s, v)) ->
        (* a function's result has the class of its return type *)
        check_use None v (fl (Option.value f.Irfunc.ret ~default:s))
      | Instr.Condbr (v, _, _) | Instr.Switch (v, _, _) -> check_use None v false
      | Instr.Ret None | Instr.Br _ | Instr.Unreachable -> ());
      List.iter
        (fun l ->
          if not (Hashtbl.mem label_set l) then
            fail "%s: branch to unknown block %s" f.Irfunc.name l)
        (Instr.term_successors term))
    f.Irfunc.blocks

(* A global's initializer must fit its type, and every symbol it names
   must exist. *)
let verify_global names (g : Irmod.global) =
  let leaf _ = function
    | Irmod.Lglobal n ->
      if lookup (fun t -> t.data) names n = None then
        fail "global @%s references unknown global @%s" g.Irmod.g_name n
    | Irmod.Lfunc n ->
      if signature names n = None then
        fail "global @%s references unknown function @%s" g.Irmod.g_name n
    | Irmod.Lint _ | Irmod.Lfloat _ | Irmod.Lbytes _ -> ()
  in
  try Irmod.iter_init leaf g.Irmod.g_ty g.Irmod.g_init
  with Irmod.Init_mismatch (init, ty) ->
    fail "global @%s: initializer %s does not fit type %s" g.Irmod.g_name
      (Irprint.ginit_to_string init) (Irtype.mty_to_string ty)

(* Check [part]'s globals, then its functions, in order, including that
   no function name is defined twice among them. *)
let verify_part names (part : Irmod.t) =
  List.iter (verify_global names) part.Irmod.globals;
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (f : Irfunc.t) ->
      if Hashtbl.mem seen f.Irfunc.name then
        fail "duplicate function @%s" f.Irfunc.name;
      Hashtbl.replace seen f.Irfunc.name ();
      verify_func names f)
    part.Irmod.funcs

let verify (m : Irmod.t) = verify_part (index m) m

(* The names [f] calls directly, in order. *)
let direct_callees (f : Irfunc.t) =
  List.concat_map
    (fun (b : Irfunc.block) ->
      List.filter_map
        (function Instr.Call (_, _, Instr.Direct n, _) -> Some n | _ -> None)
        b.Irfunc.instrs)
    f.Irfunc.blocks

(** Each name a function of [m], indexed as [names], calls directly,
    with its signature in [m]. *)
let callees names (m : Irmod.t) : (string * signature) list =
  List.sort_uniq compare (List.concat_map direct_callees m.Irmod.funcs)
  |> List.map (fun n -> (n, Option.get (signature names n)))

(** Check [linked] = [Irmod.link user lib], where [lib] passed [verify],
    [lib_names] is [index lib] and [lib_callees] is [callees lib_names
    lib], raising exactly what [verify linked] would.  Only [user] is
    indexed, over [lib_names]: linking only adds names and replaces the
    library definitions [user] redefines, so a library function left in
    [linked] can fail only by calling a name whose signature differs in
    [linked]; those functions are checked after the user's globals and
    functions. *)
let verify_link ~lib_names ~lib_callees (linked : Irmod.t) (user : Irmod.t) =
  let names = index ~under:lib_names user in
  verify_part names user;
  let changed =
    List.filter_map
      (fun (n, s) -> if signature names n <> Some s then Some n else None)
      lib_callees
  in
  if changed <> [] then
    let nuser = List.length user.Irmod.funcs in
    let calls_changed f =
      List.exists (fun n -> List.mem n changed) (direct_callees f)
    in
    verify_part names
      {
        linked with
        Irmod.globals = [];
        funcs =
          List.filteri (fun i f -> i >= nuser && calls_changed f) linked.Irmod.funcs;
      }
