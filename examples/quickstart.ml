(** Quickstart: compile a C program from a string and execute it under
    Safe Sulong — the managed interpreter whose automatic checks find
    memory errors exactly.

    Run with: dune exec examples/quickstart.exe *)

let correct_program = {|
#include <stdio.h>

int fib(int n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}

int main(void) {
  for (int i = 1; i <= 10; i++) {
    printf("fib(%d) = %d\n", i, fib(i));
  }
  return 0;
}
|}

let buggy_program = {|
#include <stdlib.h>
#include <string.h>

int main(void) {
  const char *name = "quickstart";
  char *copy = (char *)malloc(strlen(name)); /* classic: missing +1 */
  strcpy(copy, name);
  free(copy);
  return 0;
}
|}

let () =
  (* A correct program runs to completion; its output and exit code are
     what the native machine would produce. *)
  let ok = Engine.run Engine.Safe_sulong correct_program in
  print_string ok.Engine.output;
  Printf.printf "exit code: %d\n\n" ok.Engine.exit_code;

  (* A buggy program is stopped at the *first* invalid access, with a
     message naming the managed object class, the offset and the kind of
     violation -- no instrumentation, no recompilation, no heuristics.
     The managed run itself carries the provenance report. *)
  let bad = Engine.run Engine.Safe_sulong buggy_program in
  (match bad.Engine.outcome with
  | Outcome.Detected { kind; message; _ } ->
    Printf.printf "bug found!\n  category: %s\n  message:  %s\n" kind message
  | _ -> print_endline "no bug found (unexpected!)");
  (match bad.Engine.managed with
  | Some { Interp.report = Some rep; _ } -> print_string (Bugreport.render rep)
  | _ -> ());

  (* The same API exposes every baseline engine for comparison. *)
  let under tool =
    (Engine.run tool buggy_program).Engine.outcome |> Outcome.short
  in
  Printf.printf "\nthe same bug under the other engines:\n";
  Printf.printf "  Clang -O0 (native): %s\n" (under (Engine.Clang Pipeline.O0));
  Printf.printf "  ASan -O0:           %s\n" (under (Engine.Asan Pipeline.O0));
  Printf.printf "  Valgrind:           %s\n" (under (Engine.Valgrind Pipeline.O0))
