(** The ablation experiments of DESIGN.md §5, as one printable report:
    each row flips a single mechanism the paper's argument rests on and
    shows the detection outcome change (or, for mementos, the
    behavioural invariance). *)

let uaf_churn_program =
  {|
int main(void) {
  char *stale = (char *)malloc(64);
  stale[0] = 'x';
  free(stale);
  for (int i = 0; i < 64; i++) {
    char *fresh = (char *)malloc(64);
    fresh[0] = 'y';
    free(fresh);
  }
  char *reuse1 = (char *)malloc(64);
  char *reuse2 = (char *)malloc(64);
  reuse1[0] = 'z';
  reuse2[0] = 'z';
  printf("%c\n", stale[0]);
  return 0;
}
|}

let strtok_program =
  {|
int main(void) {
  char line[32] = "a b c";
  char seps[1] = {' '};
  char *tok = strtok(line, seps);
  printf("%s\n", tok);
  return 0;
}
|}

let common_global_program =
  {|
int votes[4];
int main(int argc, char **argv) {
  votes[argc + 3] = 1;
  return votes[0];
}
|}

let inline_victim_program =
  {|
const char *errors[3] = {"ok", "warning", "fatal"};
const char *describe(int code) { return errors[code]; }
int main(void) {
  printf("%s\n", describe(3));
  return 0;
}
|}

let asan_with options src =
  Outcome.short
    (Engine.run ~asan_options:options (Engine.Asan Pipeline.O0) src)
      .Engine.outcome

(* ASan -O3, optionally with the inliner run first (P2). *)
let asan_o3 ~inline src =
  let m = Loader.compile_user src in
  if inline then ignore (Inline.run m);
  Outcome.short
    (Engine.run_module ~step_limit:Engine.long_step_limit (Engine.Asan Pipeline.O3) m)
      .Engine.outcome

let table () : Table.t =
  let t =
    Table.create
      ~title:
        "Ablations: flip one mechanism, watch the detection outcome change"
      ~header:[ "ablation"; "configuration"; "outcome" ]
      ()
  in
  let base = Engine.default_asan in
  (* quarantine (paper P3) *)
  Table.add_row t
    [ "ASan quarantine (UAF under churn)"; "default budget (256 KiB)";
      asan_with base uaf_churn_program ];
  Table.add_row t
    [ ""; "no quarantine";
      asan_with { base with Engine.quarantine_cap = 0 } uaf_churn_program ];
  (* strtok interceptor (case 2 / the authors' upstream fix) *)
  Table.add_row t
    [ "strtok interceptor (rL298650)"; "period-accurate (absent)";
      asan_with base strtok_program ];
  Table.add_row t
    [ ""; "with the later fix";
      asan_with { base with Engine.strtok_interceptor = true } strtok_program ];
  (* -fno-common *)
  Table.add_row t
    [ "-fno-common (zero-init globals)"; "enabled (the paper's setting)";
      asan_with base common_global_program ];
  Table.add_row t
    [ ""; "disabled";
      asan_with { base with Engine.fno_common = false } common_global_program ];
  (* inlining escalates P2 *)
  Table.add_row t
    [ "inlining before -O3 (P2)"; "ASan -O3, no inlining";
      asan_o3 ~inline:false inline_victim_program ];
  Table.add_row t
    [ ""; "ASan -O3 + inlining";
      asan_o3 ~inline:true inline_victim_program ];
  Table.add_row t
    [ ""; "Safe Sulong (either way)";
      Outcome.short
        (Engine.run Engine.Safe_sulong inline_victim_program).Engine.outcome ];
  (* mementos: behavioural invariance *)
  let w = Engine.run ~mementos:true Engine.Safe_sulong Benchprogs.binarytrees.Benchprogs.b_source in
  let wo = Engine.run ~mementos:false Engine.Safe_sulong Benchprogs.binarytrees.Benchprogs.b_source in
  Table.add_row t
    [ "allocation mementos (binarytrees)"; "on vs. off";
      (if w.Engine.output = wo.Engine.output && w.Engine.steps = wo.Engine.steps
       then "identical behaviour (reported class names differ)"
       else "BEHAVIOUR DIVERGED (bug)") ];
  t

let print () = Table.print (table ())
