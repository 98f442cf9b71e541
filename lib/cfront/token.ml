(** Lexical tokens of the C subset. *)

type pos = { line : int; col : int }

let dummy_pos = { line = 0; col = 0 }

type t =
  | INT_LIT of int64 * Ctype.ikind * Ctype.signedness
  | FLOAT_LIT of float * Ctype.fkind
  | CHAR_LIT of char
  | STR_LIT of string
  | IDENT of string
  | KW of string          (** keyword, e.g. "int", "while" *)
  | PUNCT of string       (** punctuator, e.g. "+", "->", "<<=" *)
  | EOF

type spanned = { tok : t; pos : pos }

let is_keyword = function
  | "void" | "char" | "short" | "int" | "long" | "float" | "double" | "signed"
  | "unsigned" | "struct" | "enum" | "union" | "typedef" | "if" | "else"
  | "while" | "do" | "for" | "return" | "break" | "continue" | "switch"
  | "case" | "default" | "sizeof" | "const" | "static" | "extern" | "volatile"
    ->
    true
  | _ -> false

let to_string = function
  | INT_LIT (v, _, _) -> Int64.to_string v
  | FLOAT_LIT (f, _) -> string_of_float f
  | CHAR_LIT c -> Printf.sprintf "%C" c
  | STR_LIT s -> Printf.sprintf "%S" s
  | IDENT s -> s
  | KW s -> s
  | PUNCT s -> s
  | EOF -> "<eof>"
