(** Programs test_tier and test/surfaces.sh share.  [all]: three
    programs that fault in compiled code under the production tier-up
    threshold ([Costmodel.hot_threshold_ops]): in a function compiled
    after tier-up, inside a tiny leaf callee inlined into one, and in
    [main] after on-stack replacement; test_tier's report law runs
    them.  [edges]: locals of every slot shape, and indirect calls
    through a pointer of the other class; test_tier's slot law runs
    them with [all].  test/surfaces.sh saves the CLI surfaces of
    both. *)

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

(* Locals of every narrow width and of [float] and [long long], whose
   stores wrap or round. *)
let narrow =
  {|int main(void) {
  char c = 100;
  short s = 30000;
  unsigned char uc = 200;
  float f = 0.1f;
  long long ll = 9000000000000000000LL;
  for (int i = 0; i < 5; i++) {
    c = c + 50;
    s = s + 3000;
    uc = uc + 30;
    f = f * 1.7f + 0.3f;
    ll = ll * 3 + 1;
  }
  printf("%d %d %d %.9f %lld\n", c, s, uc, f, ll);
  return c & 0x7f;
}
|}

(* Pointer locals: NULL, a function pointer whose store registers its
   cookie (the cookie [k] comes back through [back]), and a pointer
   that went through an integer. *)
let pointers =
  {|int inc(int x) { return x + 1; }
int main(void) {
  int *p = 0;
  int (*fp)(int) = inc;
  char c = 'a';
  char *q = (char *)(long)&c;
  char *z = (char *)fp + 0;
  long k = (long)z;
  int (*back)(int) = (int (*)(int))k;
  printf("%d %d %c %d\n", p == 0, fp(41), *q, back(6));
  return 0;
}
|}

(* The store of [&y] into [q] registers [y], so the cookie one object
   past [x] reaches it: prints "7 7". *)
let forged =
  {|int main(void) {
  int x = 1;
  int y = 2;
  int *q = &y;
  long cx = (long)&x;
  int *r = (int *)(cx + (1L << 32));
  *r = 7;
  printf("%d %d\n", *q, y);
  return 0;
}
|}

(* Indirect calls whose callee declares another class: a type
   violation at the call. *)
let float_result =
  {|double half(void) { return 0.5; }
int main(void) {
  int (*f)(void) = (int (*)(void))half;
  printf("%d\n", f());
  return 0;
}
|}

let pointer_result =
  {|char *name(void) { return "x"; }
int main(void) {
  double (*f)(void) = (double (*)(void))name;
  printf("%f\n", f());
  return 0;
}
|}

let float_argument =
  {|int twice(int x) { return 2 * x; }
int main(void) {
  int (*f)(double) = (int (*)(double))twice;
  printf("%d\n", f(1.5));
  return 0;
}
|}

let builtin_argument =
  {|int __sulong_putchar(int c);
int main(void) {
  int (*f)(double) = (int (*)(double))__sulong_putchar;
  f(65.0);
  return 0;
}
|}

let edges =
  [ ("slot-narrow", narrow); ("slot-pointers", pointers);
    ("slot-forged-cookie", forged); ("fnptr-float-result", float_result);
    ("fnptr-pointer-result", pointer_result);
    ("fnptr-float-argument", float_argument);
    ("fnptr-builtin-argument", builtin_argument) ]
