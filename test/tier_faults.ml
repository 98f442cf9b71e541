(** Three programs that fault in compiled code under the production
    tier-up threshold ([Costmodel.hot_threshold_ops]): in a function
    compiled after tier-up, inside a tiny leaf callee inlined into one,
    and in [main] after on-stack replacement.  test/surfaces.sh saves
    their CLI surfaces and test_tier's report law runs them. *)

(* [sum] turns hot in its 2000 calls; its last call reads a[100]. *)
let compiled =
  {|int sum(int *a, int n) {
  int s = 0;
  for (int i = 0; i < n; i++)
    s += a[i];
  return s;
}
int main(void) {
  int a[100];
  long t = 0;
  for (int i = 0; i < 100; i++)
    a[i] = i;
  for (int r = 0; r < 2000; r++)
    t += sum(a, 100);
  printf("%ld\n", t);
  return sum(a, 101);
}
|}

(* The same, with the read in [get], which compiled [sum] inlines. *)
let inlined =
  {|int get(int *a, int i) { return a[i]; }
int sum(int *a, int n) {
  int s = 0;
  for (int i = 0; i < n; i++)
    s += get(a, i);
  return s;
}
int main(void) {
  int a[100];
  long t = 0;
  for (int i = 0; i < 100; i++)
    a[i] = i;
  for (int r = 0; r < 2000; r++)
    t += sum(a, 100);
  printf("%ld\n", t);
  return sum(a, 101);
}
|}

(* [main]'s loop enters compiled code by OSR; the write after it is out
   of bounds. *)
let osr =
  {|int main(void) {
  int a[100];
  long s = 0;
  for (int i = 0; i < 300000; i++) {
    a[i % 100] = i;
    s += a[(i * 7) % 100];
  }
  printf("%ld\n", s);
  a[100 + (int)(s & 1)] = 1;
  return 0;
}
|}

let all =
  [ ("tier-compiled-fault", compiled); ("tier-inlined-fault", inlined);
    ("tier-osr-fault", osr) ]
