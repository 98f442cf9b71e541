(** IR tooling tour: compile C to the IR, run optimization pipelines,
    dump the IR to text, parse it back, and execute the re-parsed module
    — the library's `llvm-dis`/`llvm-as` pair plus pass manager.

    Run with: dune exec examples/ir_tooling.exe *)

let src = {|
int squared_sum(int n) {
  int total = 0;
  for (int i = 1; i <= n; i++) { total += i * i; }
  return total;
}
int main(void) {
  printf("%d\n", squared_sum(10));
  return 0;
}
|}

let count_instrs (m : Irmod.t) = Irmod.instr_count m

let () =
  (* 1. the front end: Clang -O0-shaped IR *)
  let m = Loader.compile_user src in
  Printf.printf "front end:            %3d instructions\n" (count_instrs m);

  (* 2. the -O3 middle end shrinks it *)
  let o3 = Loader.compile_user src in
  ignore (Pipeline.o3 o3);
  Printf.printf "after -O3:            %3d instructions\n" (count_instrs o3);

  (* 3. inlining (the optional, bug-hiding pass) shrinks it further *)
  let inl = Loader.compile_user src in
  ignore (Inline.run inl);
  ignore (Pipeline.o3 inl);
  ignore (Globaldce.run inl);
  Printf.printf "after inline + -O3:   %3d instructions (%d function(s) left)\n"
    (count_instrs inl)
    (List.length inl.Irmod.funcs);

  (* 4. dump / parse round trip *)
  let text = Irprint.module_to_string o3 in
  Printf.printf "\ntextual IR (%d lines), squared_sum after -O3:\n"
    (List.length (String.split_on_char '\n' text));
  List.iter
    (fun line -> print_endline ("  " ^ line))
    (List.filteri
       (fun _ line -> Util.string_contains ~needle:"" line)
       (match String.index_opt text '@' with
       | Some _ ->
         let lines = String.split_on_char '\n' text in
         let rec from_define = function
           | [] -> []
           | l :: rest ->
             if Util.string_contains ~needle:"define" l then
               let rec until_brace acc = function
                 | [] -> List.rev acc
                 | "}" :: _ -> List.rev ("}" :: acc)
                 | x :: xs -> until_brace (x :: acc) xs
               in
               until_brace [ l ] rest
             else from_define rest
         in
         from_define lines
       | None -> []));

  let reparsed = Irparse.parse text in
  Verify.verify reparsed;
  Printf.printf "\nround trip: parse (print m) verifies, %d instructions\n"
    (count_instrs reparsed);

  (* 5. execute the re-parsed module on the managed interpreter *)
  let linked = Loader.link_libc (Loader.libc ()) reparsed in
  let r = Engine.run_module Engine.Safe_sulong linked in
  Printf.printf "executed re-parsed IR: output = %S, exit = %d\n"
    r.Engine.output r.Engine.exit_code
