(** The "precompiled system libc" of the native engines.

    These functions are implemented in OCaml and operate directly on the
    flat memory — the analogue of the optimized binary libc a real
    process links against.  Crucially they are *uninstrumented*: the
    sanitizer simulators only see what their interceptors check
    ([Hooks.intercept]), which is exactly the paper's P4: a missing or
    incomplete interceptor means a bug inside a libc call goes unnoticed.

    [strlen] is deliberately word-wise (reads 8 bytes at a time), like
    production libcs — the pattern that forces sanitizers to special-case
    libc internals. *)

type ctx = {
  mem : Mem.t;
  alloc : Alloc.t;
  hooks : Hooks.t;
  out : Buffer.t;
  mutable input : string;
  mutable input_pos : int;
  mutable strtok_save : int64;
  mutable rand_state : int64;
  call_indirect : int64 -> Nvalue.t list -> Nvalue.t option;
  malloc : int -> int64;
  free : int64 -> unit;
  mutable libc_call_count : int;
}

let garbage_arg_value = Int64.of_int (Mem.globals_base + 0x100)
(* What reading past the last argument a call passed yields (a missing
   vararg, or an argument a cast function pointer left out): junk that
   looks like a nearby address.  Deterministic, printable, does not crash. *)

let missing_arg = Nvalue.NI (garbage_arg_value, true)
let nth_arg args n = Option.value (List.nth_opt args n) ~default:missing_arg
let args_from n args = List.filteri (fun i _ -> i >= n) args

let pop_arg args =
  match !args with
  | a :: rest ->
    args := rest;
    a
  | [] -> missing_arg

let arg_addr v = Nvalue.as_int v


(* Hook-aware memory helpers: when the tool "sees" libc (binary
   instrumentation), every libc access goes through the A/V-bit hooks;
   otherwise libc runs dark (compile-time instrumentation). *)

let sees ctx = ctx.hooks.Hooks.sees_libc

let lc_load ctx a ~size =
  if sees ctx then ctx.hooks.Hooks.on_load a size;
  Mem.load_int ctx.mem a ~size

let lc_store ctx a ~size v =
  if sees ctx then ctx.hooks.Hooks.on_store a size true;
  Mem.store_int ctx.mem a ~size v

let lc_store_float ctx a ~size v =
  if sees ctx then ctx.hooks.Hooks.on_store a size true;
  Mem.store_float ctx.mem a ~size v

(* libc code branches on the bytes it reads (string scans, compares);
   when the tool tracks V bits, reading an undefined byte here is a
   "conditional jump depends on uninitialised value(s)" — how Memcheck
   indirectly catches some stack overreads (paper §4.1). *)
let byte_at ctx a =
  if sees ctx && not (ctx.hooks.Hooks.load_defined a 1) then
    ctx.hooks.Hooks.on_undef_use
      "Conditional jump or move depends on uninitialised value(s)";
  Int64.to_int (lc_load ctx a ~size:1)

let read_cstr ctx a =
  let buf = Buffer.create 16 in
  let rec go off =
    let c = byte_at ctx (Int64.add a (Int64.of_int off)) in
    if c <> 0 then begin
      Buffer.add_char buf (Char.chr c);
      go (off + 1)
    end
  in
  go 0;
  Buffer.contents buf

let write_str ctx a s =
  String.iteri
    (fun i c ->
      lc_store ctx (Int64.add a (Int64.of_int i)) ~size:1
        (Int64.of_int (Char.code c)))
    s

(* ---------------- string primitives on flat memory ---------------- *)

let rec cstrlen_bytewise ctx a n =
  if byte_at ctx (Int64.add a (Int64.of_int n)) = 0 then n
  else cstrlen_bytewise ctx a (n + 1)

(** Word-wise strlen, as in optimized libcs: loads 8 bytes at a time and
    looks for a zero byte, routinely reading past the terminator. *)
let cstrlen_wordwise ctx a =
  let rec words off =
    let w = Mem.load_int ctx.mem (Int64.add a (Int64.of_int off)) ~size:8 in
    (* The classic "has zero byte" bit trick. *)
    let low = Int64.sub w 0x0101010101010101L in
    let mask = Int64.logand low (Int64.logand (Int64.lognot w) 0x8080808080808080L) in
    if mask = 0L then words (off + 8)
    else begin
      let rec find i =
        if byte_at ctx (Int64.add a (Int64.of_int (off + i))) = 0 then off + i
        else find (i + 1)
      in
      find 0
    end
  in
  words 0

(** strlen as the engine sees it: the optimized word-wise version when
    libc runs dark; the tool's byte-wise replacement when the tool
    redirects string functions (Valgrind). *)
let cstrlen ctx a =
  if sees ctx then cstrlen_bytewise ctx a 0 else cstrlen_wordwise ctx a

let emit_string ctx s = Buffer.add_string ctx.out s

(* ---------------- input ---------------- *)

let read_char ctx =
  if ctx.input_pos < String.length ctx.input then begin
    let c = ctx.input.[ctx.input_pos] in
    ctx.input_pos <- ctx.input_pos + 1;
    Char.code c
  end
  else -1

let unread_char ctx c = if c >= 0 && ctx.input_pos > 0 then
    ctx.input_pos <- ctx.input_pos - 1

(* ---------------- printf engine ---------------- *)

type dest = To_stream | To_buffer of int64 ref

let emit_to ctx dest s =
  match dest with
  | To_stream -> emit_string ctx s
  | To_buffer cursor ->
    (* the sprintf interceptor validates the written range *)
    ctx.hooks.Hooks.intercept "__sprintf_write"
      [ !cursor; Int64.of_int (String.length s) ];
    write_str ctx !cursor s;
    cursor := Int64.add !cursor (Int64.of_int (String.length s))

let pad_num s ~width ~zero ~left =
  let n = width - String.length s in
  if n <= 0 then s
  else if left then s ^ String.make n ' '
  else if zero then
    if String.length s > 0 && (s.[0] = '-' || s.[0] = '+') then
      String.make 1 s.[0] ^ String.make n '0' ^ String.sub s 1 (String.length s - 1)
    else String.make n '0' ^ s
  else String.make n ' ' ^ s

let format_engine ctx dest (fmt : string) (args : Nvalue.t list) : int =
  let args = ref args in
  let count = ref 0 in
  let out s =
    count := !count + String.length s;
    emit_to ctx dest s
  in
  let n = String.length fmt in
  let i = ref 0 in
  while !i < n do
    let c = fmt.[!i] in
    if c <> '%' then begin
      out (String.make 1 c);
      incr i
    end
    else begin
      incr i;
      let left = ref false and zero = ref false in
      while
        !i < n && (fmt.[!i] = '-' || fmt.[!i] = '0' || fmt.[!i] = '+' || fmt.[!i] = ' ')
      do
        if fmt.[!i] = '-' then left := true;
        if fmt.[!i] = '0' then zero := true;
        incr i
      done;
      let width = ref 0 in
      while !i < n && fmt.[!i] >= '0' && fmt.[!i] <= '9' do
        width := (!width * 10) + (Char.code fmt.[!i] - 48);
        incr i
      done;
      let prec = ref (-1) in
      if !i < n && fmt.[!i] = '.' then begin
        incr i;
        prec := 0;
        while !i < n && fmt.[!i] >= '0' && fmt.[!i] <= '9' do
          prec := (!prec * 10) + (Char.code fmt.[!i] - 48);
          incr i
        done
      end;
      let longmod = ref false in
      while !i < n && (fmt.[!i] = 'l' || fmt.[!i] = 'z' || fmt.[!i] = 'h') do
        if fmt.[!i] = 'l' || fmt.[!i] = 'z' then longmod := true;
        incr i
      done;
      if !i < n then begin
        let conv = fmt.[!i] in
        incr i;
        (* without a length modifier the argument is a 32-bit int: mask
           for the unsigned conversions (the register image is
           sign-extended) *)
        let unsigned_arg v =
          let x = Nvalue.as_int v in
          if !longmod then x else Int64.logand x 0xFFFFFFFFL
        in
        let check_def v =
          if not (Nvalue.defined v) then
            ctx.hooks.Hooks.on_undef_use "use of uninitialised value in printf"
        in
        match conv with
        | '%' -> out "%"
        | 'd' | 'i' ->
          let v = pop_arg args in
          check_def v;
          out (pad_num (Int64.to_string (Nvalue.as_int v)) ~width:!width
                 ~zero:!zero ~left:!left)
        | 'u' ->
          let v = pop_arg args in
          check_def v;
          out (pad_num (Printf.sprintf "%Lu" (unsigned_arg v)) ~width:!width
                 ~zero:!zero ~left:!left)
        | 'x' ->
          let v = pop_arg args in
          check_def v;
          out (pad_num (Printf.sprintf "%Lx" (unsigned_arg v)) ~width:!width
                 ~zero:!zero ~left:!left)
        | 'X' ->
          let v = pop_arg args in
          check_def v;
          out (pad_num (Printf.sprintf "%LX" (unsigned_arg v)) ~width:!width
                 ~zero:!zero ~left:!left)
        | 'o' ->
          let v = pop_arg args in
          check_def v;
          out (pad_num (Printf.sprintf "%Lo" (unsigned_arg v)) ~width:!width
                 ~zero:!zero ~left:!left)
        | 'c' ->
          let v = pop_arg args in
          check_def v;
          out (String.make 1 (Char.chr (Int64.to_int (Nvalue.as_int v) land 0xff)))
        | 's' ->
          let v = pop_arg args in
          check_def v;
          let addr = Nvalue.as_int v in
          (* The printf interceptor checks only pointer arguments
             (paper case study 2); glibc prints "(null)" for NULL. *)
          if addr <> 0L then ctx.hooks.Hooks.intercept "__printf_str" [ addr ];
          let s = if addr = 0L then "(null)" else read_cstr ctx addr in
          let s =
            if !prec >= 0 && String.length s > !prec then String.sub s 0 !prec
            else s
          in
          out (pad_num s ~width:!width ~zero:false ~left:!left)
        | 'p' ->
          let v = pop_arg args in
          check_def v;
          out (Printf.sprintf "0x%Lx" (Nvalue.as_int v))
        | ('f' | 'F' | 'e' | 'E' | 'g' | 'G') as conv ->
          (* decimal rendering is delegated to the shared [Floatfmt] so
             the native model, the managed libc and the difftest
             reference agree on every float digit by construction
             (DESIGN.md §10) *)
          let v = pop_arg args in
          check_def v;
          out (pad_num (Floatfmt.format conv !prec (Nvalue.as_float v))
                 ~width:!width ~zero:!zero ~left:!left)
        | c -> out (Printf.sprintf "%%%c" c)
      end
    end
  done;
  (match dest with
  | To_buffer cursor -> lc_store ctx !cursor ~size:1 0L
  | To_stream -> ());
  !count

(* ---------------- scanf engine ---------------- *)

let scan_skip_space ctx =
  let rec go () =
    let c = read_char ctx in
    if c >= 0 && (c = 32 || c = 9 || c = 10 || c = 13) then go () else c
  in
  go ()

let scan_engine ctx (fmt : string) (args : Nvalue.t list) : int =
  let args = ref args in
  let assigned = ref 0 in
  let n = String.length fmt in
  let i = ref 0 in
  let stop = ref false in
  while (not !stop) && !i < n do
    let fc = fmt.[!i] in
    if fc = ' ' || fc = '\n' || fc = '\t' then begin
      let c = scan_skip_space ctx in
      unread_char ctx c;
      incr i
    end
    else if fc <> '%' then begin
      let c = read_char ctx in
      if c <> Char.code fc then begin
        unread_char ctx c;
        stop := true
      end
      else incr i
    end
    else begin
      incr i;
      let long = ref false in
      while !i < n && (fmt.[!i] = 'l' || fmt.[!i] = 'z' || fmt.[!i] = 'h') do
        if fmt.[!i] = 'l' || fmt.[!i] = 'z' then long := true;
        incr i
      done;
      if !i < n then begin
        let conv = fmt.[!i] in
        incr i;
        match conv with
        | 'd' | 'i' | 'u' -> begin
          let c = scan_skip_space ctx in
          let neg = c = Char.code '-' in
          let c = if neg || c = Char.code '+' then read_char ctx else c in
          if c < Char.code '0' || c > Char.code '9' then begin
            unread_char ctx c;
            stop := true
          end
          else begin
            let v = ref 0L in
            let c = ref c in
            while !c >= Char.code '0' && !c <= Char.code '9' do
              v := Int64.add (Int64.mul !v 10L) (Int64.of_int (!c - 48));
              c := read_char ctx
            done;
            unread_char ctx !c;
            let v = if neg then Int64.neg !v else !v in
            let dest = arg_addr (pop_arg args) in
            lc_store ctx dest ~size:(if !long then 8 else 4) v;
            incr assigned
          end
        end
        | 'f' | 'g' | 'e' -> begin
          let c = scan_skip_space ctx in
          let buf = Buffer.create 16 in
          let c = ref c in
          while
            !c >= 0
            && (let ch = Char.chr !c in
                (ch >= '0' && ch <= '9')
                || ch = '-' || ch = '+' || ch = '.' || ch = 'e' || ch = 'E')
          do
            Buffer.add_char buf (Char.chr !c);
            c := read_char ctx
          done;
          unread_char ctx !c;
          match float_of_string_opt (Buffer.contents buf) with
          | Some v ->
            let dest = arg_addr (pop_arg args) in
            lc_store_float ctx dest ~size:(if !long then 8 else 4) v;
            incr assigned
          | None -> stop := true
        end
        | 's' -> begin
          let c = scan_skip_space ctx in
          if c < 0 then stop := true
          else begin
            let dest = arg_addr (pop_arg args) in
            ctx.hooks.Hooks.intercept "__scanf_str" [ dest ];
            let c = ref c in
            let off = ref 0 in
            while !c >= 0 && !c <> 32 && !c <> 9 && !c <> 10 && !c <> 13 do
              lc_store ctx
                (Int64.add dest (Int64.of_int !off))
                ~size:1 (Int64.of_int !c);
              incr off;
              c := read_char ctx
            done;
            unread_char ctx !c;
            lc_store ctx (Int64.add dest (Int64.of_int !off)) ~size:1 0L;
            incr assigned
          end
        end
        | 'c' -> begin
          let c = read_char ctx in
          if c < 0 then stop := true
          else begin
            let dest = arg_addr (pop_arg args) in
            lc_store ctx dest ~size:1 (Int64.of_int c);
            incr assigned
          end
        end
        | _ -> stop := true
      end
    end
  done;
  !assigned

(* ---------------- dispatch ---------------- *)

exception Unknown_function of string

(** Execute libc function [name].  [args] follow the IR call; for
    variadic functions the fixed arguments come first. *)
let call (ctx : ctx) (name : string) (args : Nvalue.t list) : Nvalue.t option =
  ctx.libc_call_count <- ctx.libc_call_count + 1;
  let ai n = Nvalue.as_int (nth_arg args n) in
  let af n = Nvalue.as_float (nth_arg args n) in
  let ret_int v = Some (Nvalue.int_ v) in
  let ret_float v = Some (Nvalue.float_ v) in
  let intercept ptrs = ctx.hooks.Hooks.intercept name ptrs in
  match name with
  | "malloc" -> ret_int (ctx.malloc (Int64.to_int (ai 0)))
  | "calloc" ->
    let bytes = Int64.to_int (ai 0) * Int64.to_int (ai 1) in
    let p = ctx.malloc bytes in
    for i = 0 to bytes - 1 do
      lc_store ctx (Int64.add p (Int64.of_int i)) ~size:1 0L
    done;
    ret_int p
  | "realloc" ->
    let p = ai 0 in
    let size = Int64.to_int (ai 1) in
    if p = 0L then ret_int (ctx.malloc size)
    else begin
      let fresh = ctx.malloc size in
      let old_size =
        match ctx.hooks.Hooks.usable_size p with
        | Some s -> s
        | None -> begin
          match Alloc.block_status ctx.alloc p with
          | `Live s -> s
          | `Freed s -> s
          | `Unknown -> size
        end
      in
      for i = 0 to min size old_size - 1 do
        lc_store ctx
          (Int64.add fresh (Int64.of_int i))
          ~size:1
          (lc_load ctx (Int64.add p (Int64.of_int i)) ~size:1)
      done;
      ctx.free p;
      ret_int fresh
    end
  | "free" ->
    ctx.free (ai 0);
    None
  | "exit" -> raise (Nvalue.Prog_exit (Int64.to_int (ai 0)))
  | "abort" -> raise (Nvalue.Prog_exit 134)
  | "rand" ->
    ctx.rand_state <-
      Int64.add (Int64.mul ctx.rand_state 6364136223846793005L) 1442695040888963407L;
    ret_int (Int64.shift_right_logical ctx.rand_state 33)
  | "srand" ->
    ctx.rand_state <- ai 0;
    None
  | "abs" -> ret_int (Int64.abs (ai 0))
  | "labs" -> ret_int (Int64.abs (ai 0))
  | "atoi" | "atol" ->
    intercept [ ai 0 ];
    let s = read_cstr ctx (ai 0) in
    let v =
      try Int64.of_string (String.trim s)
      with _ -> (
        (* parse the leading integer prefix like atoi does *)
        let s = String.trim s in
        let buf = Buffer.create 8 in
        (try
           String.iteri
             (fun i c ->
               if (c = '-' || c = '+') && i = 0 then Buffer.add_char buf c
               else if c >= '0' && c <= '9' then Buffer.add_char buf c
               else raise Exit)
             s
         with Exit -> ());
        try Int64.of_string (Buffer.contents buf) with _ -> 0L)
    in
    ret_int v
  | "atof" ->
    intercept [ ai 0 ];
    let s = String.trim (read_cstr ctx (ai 0)) in
    let rec try_prefix k =
      if k = 0 then 0.0
      else
        match float_of_string_opt (String.sub s 0 k) with
        | Some f -> f
        | None -> try_prefix (k - 1)
    in
    ret_float (try_prefix (String.length s))
  | "strlen" ->
    intercept [ ai 0 ];
    ret_int (Int64.of_int (cstrlen ctx (ai 0)))
  | "strcpy" ->
    intercept [ ai 0; ai 1 ];
    let s = read_cstr ctx (ai 1) in
    write_str ctx (ai 0) (s ^ "\000");
    ret_int (ai 0)
  | "strncpy" ->
    intercept [ ai 0; ai 1; ai 2 ];
    let n = Int64.to_int (ai 2) in
    let s = read_cstr ctx (ai 1) in
    let copied = if String.length s > n then String.sub s 0 n else s in
    write_str ctx (ai 0) copied;
    for i = String.length copied to n - 1 do
      lc_store ctx (Int64.add (ai 0) (Int64.of_int i)) ~size:1 0L
    done;
    ret_int (ai 0)
  | "strcat" ->
    intercept [ ai 0; ai 1 ];
    let dst_len = cstrlen ctx (ai 0) in
    let s = read_cstr ctx (ai 1) in
    write_str ctx (Int64.add (ai 0) (Int64.of_int dst_len)) (s ^ "\000");
    ret_int (ai 0)
  | "strncat" ->
    intercept [ ai 0; ai 1; ai 2 ];
    let n = Int64.to_int (ai 2) in
    let dst_len = cstrlen ctx (ai 0) in
    let s = read_cstr ctx (ai 1) in
    let copied = if String.length s > n then String.sub s 0 n else s in
    write_str ctx (Int64.add (ai 0) (Int64.of_int dst_len)) (copied ^ "\000");
    ret_int (ai 0)
  | "strcmp" ->
    intercept [ ai 0; ai 1 ];
    ret_int (Int64.of_int (compare (read_cstr ctx (ai 0)) (read_cstr ctx (ai 1))))
  | "strncmp" ->
    intercept [ ai 0; ai 1 ];
    let n = Int64.to_int (ai 2) in
    let cut s = if String.length s > n then String.sub s 0 n else s in
    ret_int
      (Int64.of_int (compare (cut (read_cstr ctx (ai 0))) (cut (read_cstr ctx (ai 1)))))
  | "strchr" ->
    intercept [ ai 0 ];
    let s = read_cstr ctx (ai 0) in
    let c = Char.chr (Int64.to_int (ai 1) land 0xff) in
    (match String.index_opt s c with
    | Some i -> ret_int (Int64.add (ai 0) (Int64.of_int i))
    | None ->
      if c = '\000' then ret_int (Int64.add (ai 0) (Int64.of_int (String.length s)))
      else ret_int 0L)
  | "strrchr" ->
    intercept [ ai 0 ];
    let s = read_cstr ctx (ai 0) in
    let c = Char.chr (Int64.to_int (ai 1) land 0xff) in
    (match String.rindex_opt s c with
    | Some i -> ret_int (Int64.add (ai 0) (Int64.of_int i))
    | None -> ret_int 0L)
  | "strstr" ->
    intercept [ ai 0; ai 1 ];
    let hay = read_cstr ctx (ai 0) in
    let needle = read_cstr ctx (ai 1) in
    let hl = String.length hay and nl = String.length needle in
    let rec find i =
      if i + nl > hl then ret_int 0L
      else if String.sub hay i nl = needle then
        ret_int (Int64.add (ai 0) (Int64.of_int i))
      else find (i + 1)
    in
    find 0
  | "strpbrk" ->
    intercept [ ai 0; ai 1 ];
    let str = read_cstr ctx (ai 0) in
    let accept = read_cstr ctx (ai 1) in
    let rec find i =
      if i >= String.length str then ret_int 0L
      else if String.contains accept str.[i] then
        ret_int (Int64.add (ai 0) (Int64.of_int i))
      else find (i + 1)
    in
    find 0
  | "memchr" ->
    intercept [ ai 0; ai 2 ];
    let n = Int64.to_int (ai 2) in
    let needle = Int64.to_int (ai 1) land 0xff in
    let rec find i =
      if i >= n then ret_int 0L
      else if byte_at ctx (Int64.add (ai 0) (Int64.of_int i)) = needle then
        ret_int (Int64.add (ai 0) (Int64.of_int i))
      else find (i + 1)
    in
    find 0
  | "strcasecmp" ->
    intercept [ ai 0; ai 1 ];
    let low s = String.lowercase_ascii s in
    ret_int
      (Int64.of_int
         (compare (low (read_cstr ctx (ai 0))) (low (read_cstr ctx (ai 1)))))
  | "strncasecmp" ->
    intercept [ ai 0; ai 1 ];
    let n = Int64.to_int (ai 2) in
    let cut s = if String.length s > n then String.sub s 0 n else s in
    let low s = String.lowercase_ascii (cut s) in
    ret_int
      (Int64.of_int
         (compare (low (read_cstr ctx (ai 0))) (low (read_cstr ctx (ai 1)))))
  | "strtol" -> begin
    intercept [ ai 0 ];
    let s0 = read_cstr ctx (ai 0) in
    let endp = ai 1 in
    let base0 = Int64.to_int (ai 2) in
    let n = String.length s0 in
    let i = ref 0 in
    while !i < n && (s0.[!i] = ' ' || s0.[!i] = '\t' || s0.[!i] = '\n') do incr i done;
    let neg = !i < n && s0.[!i] = '-' in
    if !i < n && (s0.[!i] = '-' || s0.[!i] = '+') then incr i;
    let base =
      if (base0 = 0 || base0 = 16) && !i + 1 < n && s0.[!i] = '0'
         && (s0.[!i + 1] = 'x' || s0.[!i + 1] = 'X')
      then begin
        i := !i + 2;
        16
      end
      else if base0 = 0 && !i < n && s0.[!i] = '0' then 8
      else if base0 = 0 then 10
      else base0
    in
    let value = ref 0L in
    let any = ref false in
    let continue_scan = ref true in
    while !continue_scan && !i < n do
      let c = Char.lowercase_ascii s0.[!i] in
      let digit =
        if c >= '0' && c <= '9' then Char.code c - 48
        else if c >= 'a' && c <= 'z' then Char.code c - 87
        else 99
      in
      if digit >= base then continue_scan := false
      else begin
        value := Int64.add (Int64.mul !value (Int64.of_int base)) (Int64.of_int digit);
        any := true;
        incr i
      end
    done;
    if endp <> 0L then begin
      let stop = if !any then !i else 0 in
      lc_store ctx endp ~size:8 (Int64.add (ai 0) (Int64.of_int stop))
    end;
    ret_int (if neg then Int64.neg !value else !value)
  end
  | "bsearch" -> begin
    let key = ai 0 in
    let base = ai 1 in
    let n = Int64.to_int (ai 2) in
    let size = Int64.to_int (ai 3) in
    let cmp = ai 4 in
    let elem i = Int64.add base (Int64.of_int (i * size)) in
    let compare_at i =
      match ctx.call_indirect cmp [ Nvalue.int_ key; Nvalue.int_ (elem i) ] with
      | Some v -> Int64.to_int (Nvalue.as_int v)
      | None -> 0
    in
    let rec search lo hi =
      if lo >= hi then ret_int 0L
      else begin
        let mid = lo + ((hi - lo) / 2) in
        let r = compare_at mid in
        if r = 0 then ret_int (elem mid)
        else if r < 0 then search lo mid
        else search (mid + 1) hi
      end
    in
    search 0 n
  end
  | "strdup" ->
    intercept [ ai 0 ];
    let s = read_cstr ctx (ai 0) in
    let p = ctx.malloc (String.length s + 1) in
    write_str ctx p (s ^ "\000");
    ret_int p
  | "strspn" | "strcspn" ->
    (* No interceptor for these in our ASan model either. *)
    let s_addr = ai 0 and set_addr = ai 1 in
    (* NOTE: reads the set string *without* NUL-termination guarantees —
       like the real thing, it just keeps reading memory. *)
    let set = read_cstr ctx set_addr in
    let accept = name = "strspn" in
    let rec go n =
      let c = byte_at ctx (Int64.add s_addr (Int64.of_int n)) in
      if c = 0 then n
      else begin
        let inside = String.contains set (Char.chr c) in
        if inside = accept then go (n + 1) else n
      end
    in
    ret_int (Int64.of_int (go 0))
  | "strtok" ->
    (* The tool decides whether it has an interceptor for strtok: the
       period-accurate ASan does NOT (the paper's case study 2) unless
       the later fix is switched on. *)
    intercept [ ai 0; ai 1 ];
    let s = ai 0 in
    let s = if s = 0L then ctx.strtok_save else s in
    if s = 0L then ret_int 0L
    else begin
      (* The delimiter string is read straight from memory; if it is not
         NUL-terminated this scans adjacent memory — silently. *)
      let delims = read_cstr ctx (ai 1) in
      let is_delim c = String.contains delims c in
      let rec skip a =
        let c = byte_at ctx a in
        if c <> 0 && is_delim (Char.chr c) then skip (Int64.add a 1L) else a
      in
      let start = skip s in
      if byte_at ctx start = 0 then begin
        ctx.strtok_save <- 0L;
        ret_int 0L
      end
      else begin
        let rec scan a =
          let c = byte_at ctx a in
          if c = 0 then begin
            ctx.strtok_save <- 0L;
            a
          end
          else if is_delim (Char.chr c) then begin
            lc_store ctx a ~size:1 0L;
            ctx.strtok_save <- Int64.add a 1L;
            a
          end
          else scan (Int64.add a 1L)
        in
        ignore (scan (Int64.add start 1L));
        ret_int start
      end
    end
  | "memcpy" | "memmove" ->
    intercept [ ai 0; ai 1; ai 2 ];
    let n = Int64.to_int (ai 2) in
    if sees ctx then begin
      Mem.check ctx.mem (ai 0) n;
      Mem.check ctx.mem (ai 1) n;
      (* memmove semantics via an OCaml-side copy of the source *)
      let tmp =
        String.init n (fun i ->
            Char.chr (Int64.to_int (lc_load ctx (Int64.add (ai 1) (Int64.of_int i)) ~size:1)))
      in
      write_str ctx (ai 0) tmp
    end
    else Mem.blit ctx.mem ~src:(ai 1) ~dst:(ai 0) n;
    ret_int (ai 0)
  | "memset" ->
    intercept [ ai 0; ai 2 ];
    let n = Int64.to_int (ai 2) in
    if sees ctx then begin
      Mem.check ctx.mem (ai 0) n;
      for i = 0 to n - 1 do
        lc_store ctx (Int64.add (ai 0) (Int64.of_int i)) ~size:1
          (Int64.logand (ai 1) 0xFFL)
      done
    end
    else Mem.fill ctx.mem (ai 0) n (Char.chr (Int64.to_int (ai 1) land 0xff));
    ret_int (ai 0)
  | "memcmp" ->
    intercept [ ai 0; ai 1; ai 2 ];
    let n = Int64.to_int (ai 2) in
    let rec go i =
      if i >= n then 0
      else begin
        let a = byte_at ctx (Int64.add (ai 0) (Int64.of_int i)) in
        let b = byte_at ctx (Int64.add (ai 1) (Int64.of_int i)) in
        if a <> b then a - b else go (i + 1)
      end
    in
    ret_int (Int64.of_int (go 0))
  | "puts" ->
    intercept [ ai 0 ];
    emit_string ctx (read_cstr ctx (ai 0) ^ "\n");
    ret_int 0L
  | "putchar" ->
    Buffer.add_char ctx.out (Char.chr (Int64.to_int (ai 0) land 0xff));
    ret_int (ai 0)
  | "fputc" ->
    Buffer.add_char ctx.out (Char.chr (Int64.to_int (ai 0) land 0xff));
    ret_int (ai 0)
  | "fputs" ->
    intercept [ ai 0 ];
    emit_string ctx (read_cstr ctx (ai 0));
    ret_int 0L
  | "getchar" -> ret_int (Int64.of_int (read_char ctx))
  | "fgetc" -> ret_int (Int64.of_int (read_char ctx))
  | "fgets" -> begin
    intercept [ ai 0; ai 1 ];
    let buf = ai 0 in
    let n = Int64.to_int (ai 1) in
    let rec go i =
      if i >= n - 1 then i
      else begin
        let c = read_char ctx in
        if c < 0 then i
        else begin
          lc_store ctx (Int64.add buf (Int64.of_int i)) ~size:1
            (Int64.of_int c);
          if c = Char.code '\n' then i + 1 else go (i + 1)
        end
      end
    in
    let written = go 0 in
    if written = 0 then ret_int 0L
    else begin
      lc_store ctx (Int64.add buf (Int64.of_int written)) ~size:1 0L;
      ret_int buf
    end
  end
  | "printf" ->
    let fmt = read_cstr ctx (ai 0) in
    ret_int (Int64.of_int (format_engine ctx To_stream fmt (args_from 1 args)))
  | "fprintf" ->
    let fmt = read_cstr ctx (ai 1) in
    ret_int
      (Int64.of_int (format_engine ctx To_stream fmt (args_from 2 args)))
  | "sprintf" ->
    let fmt = read_cstr ctx (ai 1) in
    ret_int
      (Int64.of_int
         (format_engine ctx (To_buffer (ref (ai 0))) fmt (args_from 2 args)))
  | "snprintf" ->
    (* cap ignored beyond NUL handling: good enough for the corpus *)
    let fmt = read_cstr ctx (ai 2) in
    ret_int
      (Int64.of_int
         (format_engine ctx (To_buffer (ref (ai 0))) fmt
            (args_from 3 args)))
  | "scanf" ->
    let fmt = read_cstr ctx (ai 0) in
    ret_int (Int64.of_int (scan_engine ctx fmt (args_from 1 args)))
  | "fscanf" ->
    let fmt = read_cstr ctx (ai 1) in
    ret_int (Int64.of_int (scan_engine ctx fmt (args_from 2 args)))
  | "isdigit" -> ret_int (if ai 0 >= 48L && ai 0 <= 57L then 1L else 0L)
  | "isalpha" ->
    let c = Int64.to_int (ai 0) in
    ret_int (if (c >= 97 && c <= 122) || (c >= 65 && c <= 90) then 1L else 0L)
  | "isalnum" ->
    let c = Int64.to_int (ai 0) in
    ret_int
      (if (c >= 97 && c <= 122) || (c >= 65 && c <= 90) || (c >= 48 && c <= 57)
       then 1L
       else 0L)
  | "isspace" ->
    let c = Int64.to_int (ai 0) in
    ret_int (if c = 32 || (c >= 9 && c <= 13) then 1L else 0L)
  | "isupper" ->
    let c = Int64.to_int (ai 0) in
    ret_int (if c >= 65 && c <= 90 then 1L else 0L)
  | "islower" ->
    let c = Int64.to_int (ai 0) in
    ret_int (if c >= 97 && c <= 122 then 1L else 0L)
  | "toupper" ->
    let c = Int64.to_int (ai 0) in
    ret_int (Int64.of_int (if c >= 97 && c <= 122 then c - 32 else c))
  | "tolower" ->
    let c = Int64.to_int (ai 0) in
    ret_int (Int64.of_int (if c >= 65 && c <= 90 then c + 32 else c))
  | "sqrt" -> ret_float (sqrt (af 0))
  | "sin" -> ret_float (sin (af 0))
  | "cos" -> ret_float (cos (af 0))
  | "atan" -> ret_float (atan (af 0))
  | "exp" -> ret_float (exp (af 0))
  | "log" -> ret_float (log (af 0))
  | "pow" -> ret_float (Float.pow (af 0) (af 1))
  | "fabs" -> ret_float (Float.abs (af 0))
  | "floor" -> ret_float (Float.floor (af 0))
  | "ceil" -> ret_float (Float.ceil (af 0))
  | "fmod" -> ret_float (Float.rem (af 0) (af 1))
  | "qsort" ->
    let base = ai 0 in
    let n = Int64.to_int (ai 1) in
    let size = Int64.to_int (ai 2) in
    let cmp = ai 3 in
    let addr i = Int64.add base (Int64.of_int (i * size)) in
    let compare_elems i j =
      match ctx.call_indirect cmp [ Nvalue.int_ (addr i); Nvalue.int_ (addr j) ] with
      | Some v -> Int64.to_int (Nvalue.as_int v)
      | None -> 0
    in
    let swap i j =
      for k = 0 to size - 1 do
        let a = Int64.add (addr i) (Int64.of_int k) in
        let b = Int64.add (addr j) (Int64.of_int k) in
        let va = lc_load ctx a ~size:1 in
        let vb = lc_load ctx b ~size:1 in
        lc_store ctx a ~size:1 vb;
        lc_store ctx b ~size:1 va
      done
    in
    for i = 1 to n - 1 do
      let j = ref i in
      while !j > 0 && compare_elems !j (!j - 1) < 0 do
        swap !j (!j - 1);
        decr j
      done
    done;
    None
  | _ -> raise (Unknown_function name)
