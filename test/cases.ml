(** Shared semantic test battery: C programs with their expected output.
    [Test_interp] checks them under Safe Sulong; [Test_native] checks the
    native engine and the optimized pipelines against the same
    expectations — every engine must implement the same C. *)

type case = {
  name : string;
  src : string;
  expected : string;
  input : string;
}

let c ?(input = "") name src expected = { name; src; expected; input }

let all =
  [
    c "arithmetic basics" {|
int main(void) {
  printf("%d %d %d %d %d\n", 7 + 3, 7 - 3, 7 * 3, 7 / 3, 7 % 3);
  printf("%d %d\n", -7 / 3, -7 % 3);
  return 0;
}
|} "10 4 21 2 1\n-2 -1\n";
    c "integer widths and wrapping" {|
int main(void) {
  char c = (char)200;
  unsigned char uc = (unsigned char)200;
  short s = (short)70000;
  unsigned int u = 4000000000u;
  printf("%d %d %d %u\n", c, uc, s, u);
  printf("%u\n", u + 600000000u);
  return 0;
}
|} "-56 200 4464 4000000000\n305032704\n";
    c "unsigned comparison and division" {|
int main(void) {
  unsigned int a = 4000000000u;
  unsigned int b = 5;
  printf("%d %u %u\n", a > b, a / 7u, a % 7u);
  size_t big = (size_t)-1;
  printf("%d\n", (size_t)1 < big);
  return 0;
}
|} "1 571428571 3\n1\n";
    c "shifts" {|
int main(void) {
  int x = -16;
  unsigned int u = 0x80000000u;
  printf("%d %d %u %d\n", 1 << 10, x >> 2, u >> 4, 5 << 1);
  return 0;
}
|} "1024 -4 134217728 10\n";
    c "floats and conversions" {|
int main(void) {
  double d = 7.9;
  float f = 2.5f;
  printf("%d %.2f %.1f\n", (int)d, d / 2.0, (double)f * 3.0);
  printf("%d\n", (int)-2.7);
  return 0;
}
|} "7 3.95 7.5\n-2\n";
    c "char arithmetic and ctype" {|
int main(void) {
  char ch = 'a';
  printf("%c %c %d\n", ch - 32, toupper(ch), isdigit('5'));
  printf("%d %d\n", isspace(' '), isalpha('_'));
  return 0;
}
|} "A A 1\n1 0\n";
    c "comparison chains and logic" {|
int main(void) {
  int a = 3;
  printf("%d %d %d %d\n", a == 3, a != 3, a < 4 && a > 2, a < 2 || a > 10);
  printf("%d %d\n", !a, !!a);
  return 0;
}
|} "1 0 1 0\n0 1\n";
    c "short-circuit side effects" {|
int hits = 0;
int bump(void) { hits++; return 1; }
int main(void) {
  int r1 = 0 && bump();
  int r2 = 1 || bump();
  int r3 = 1 && bump();
  printf("%d %d %d hits=%d\n", r1, r2, r3, hits);
  return 0;
}
|} "0 1 1 hits=1\n";
    c "ternary and comma" {|
int main(void) {
  int x = 10;
  int y = (x > 5) ? 100 : 200;
  int z = (x++, x * 2);
  printf("%d %d %d\n", x, y, z);
  return 0;
}
|} "11 100 22\n";
    c "compound assignment" {|
int main(void) {
  int x = 10;
  x += 5; x -= 3; x *= 2; x /= 3; x %= 5;
  printf("%d\n", x);
  int bits = 0xF0;
  bits &= 0x3C; bits |= 0x01; bits ^= 0x10; bits <<= 2; bits >>= 1;
  printf("%d\n", bits);
  return 0;
}
|} "3\n66\n";
    c "pre/post increment" {|
int main(void) {
  int i = 5;
  printf("%d %d %d %d %d\n", i++, i, ++i, i--, --i);
  return 0;
}
|} "5 6 7 7 5\n";
    c "loops: while, do, for, break, continue" {|
int main(void) {
  int sum = 0;
  for (int i = 0; i < 10; i++) {
    if (i == 3) { continue; }
    if (i == 8) { break; }
    sum += i;
  }
  int n = 0;
  do { n++; } while (n < 3);
  int m = 10;
  while (m > 0) { m -= 4; }
  printf("%d %d %d\n", sum, n, m);
  return 0;
}
|} "25 3 -2\n";
    c "switch with fallthrough and default" {|
const char *grade(int score) {
  switch (score / 10) {
    case 10:
    case 9: return "A";
    case 8: return "B";
    case 7: return "C";
    default: return "F";
  }
}
int main(void) {
  printf("%s %s %s %s\n", grade(95), grade(87), grade(100), grade(12));
  return 0;
}
|} "A B A F\n";
    c "2D arrays" {|
int main(void) {
  int m[3][4];
  for (int r = 0; r < 3; r++)
    for (int col = 0; col < 4; col++)
      m[r][col] = r * 10 + col;
  printf("%d %d %d\n", m[0][0], m[1][3], m[2][2]);
  int *flat = &m[0][0];
  printf("%d\n", flat[7]);
  return 0;
}
|} "0 13 22\n13\n";
    c "pointer arithmetic and differences" {|
int main(void) {
  int xs[5] = {10, 20, 30, 40, 50};
  int *p = xs;
  int *q = &xs[4];
  printf("%d %d %ld\n", *(p + 2), *(q - 1), (long)(q - p));
  p += 3;
  printf("%d\n", *p);
  return 0;
}
|} "30 40 4\n40\n";
    c "structs, nesting, pointers" {|
struct point { int x; int y; };
struct rect { struct point lo; struct point hi; };
int area(const struct rect *r) {
  return (r->hi.x - r->lo.x) * (r->hi.y - r->lo.y);
}
int main(void) {
  struct rect r;
  r.lo.x = 1; r.lo.y = 2; r.hi.x = 5; r.hi.y = 7;
  printf("%d\n", area(&r));
  struct point *p = &r.lo;
  p->x = 0;
  printf("%d\n", area(&r));
  return 0;
}
|} "20\n25\n";
    c "function pointers" {|
int add(int a, int b) { return a + b; }
int mul(int a, int b) { return a * b; }
int apply(int (*op)(int, int), int a, int b) { return op(a, b); }
int main(void) {
  int (*ops[2])(int, int) = {add, mul};
  printf("%d %d %d\n", apply(add, 3, 4), apply(mul, 3, 4), ops[1](5, 6));
  return 0;
}
|} "7 12 30\n";
    c "recursion" {|
int ack(int m, int n) {
  if (m == 0) { return n + 1; }
  if (n == 0) { return ack(m - 1, 1); }
  return ack(m - 1, ack(m, n - 1));
}
int main(void) {
  printf("%d\n", ack(2, 3));
  return 0;
}
|} "9\n";
    c "sizeof" {|
struct s { char c; long l; };
int main(void) {
  int xs[10];
  printf("%d %d %d %d %d\n", (int)sizeof(char), (int)sizeof(int),
         (int)sizeof(long), (int)sizeof(struct s), (int)sizeof(xs));
  printf("%d\n", (int)sizeof xs[0]);
  return 0;
}
|} "1 4 8 16 40\n4\n";
    c "string library" {|
int main(void) {
  char buf[32];
  strcpy(buf, "hello");
  strcat(buf, ", world");
  printf("%s %d\n", buf, (int)strlen(buf));
  printf("%d %d %d\n", strcmp("abc", "abd") < 0, strcmp("abc", "abc"),
         strncmp("abcdef", "abcxyz", 3));
  printf("%s\n", strchr("hello", 'l'));
  printf("%s\n", strstr("finding a needle here", "needle"));
  return 0;
}
|} "hello, world 12\n1 0 0\nllo\nneedle here\n";
    c "strtok tokenizing" {|
int main(void) {
  char buf[32] = "one,two;;three";
  for (char *t = strtok(buf, ",;"); t != 0; t = strtok(0, ",;")) {
    printf("[%s]", t);
  }
  printf("\n");
  return 0;
}
|} "[one][two][three]\n";
    c "mem functions" {|
int main(void) {
  char a[8];
  memset(a, 'x', 7);
  a[7] = '\0';
  char b[8];
  memcpy(b, a, 8);
  printf("%s %d\n", b, memcmp(a, b, 8));
  char overlap[16] = "0123456789";
  memmove(overlap + 2, overlap, 8);
  printf("%s\n", overlap);
  return 0;
}
|} "xxxxxxx 0\n0101234567\n";
    c "number parsing" {|
int main(void) {
  printf("%d %ld %d\n", atoi("  42abc"), atol("-123456789"), atoi("nope"));
  printf("%.3f %.3f\n", atof("3.25"), atof("-1.5e2"));
  return 0;
}
|} "42 -123456789 0\n3.250 -150.000\n";
    c "strtol with endptr and bases" {|
int main(void) {
  char *end;
  long a = strtol("  1234xyz", &end, 10);
  printf("%ld [%s]\n", a, end);
  printf("%ld %ld %ld\n", strtol("0xff", 0, 0), strtol("070", 0, 0),
         strtol("-42", 0, 10));
  long none = strtol("zzz", &end, 10);
  printf("%ld %d\n", none, *end == 'z');
  return 0;
}
|} "1234 [xyz]\n255 56 -42\n0 1\n";
    c "strpbrk, memchr, strcasecmp" {|
int main(void) {
  const char *s = "hello, world";
  printf("[%s]\n", strpbrk(s, ",!"));
  char data[8] = {1, 2, 3, 9, 5, 6, 7, 8};
  char *hit = (char *)memchr(data, 9, 8);
  printf("%d\n", (int)(hit - data));
  printf("%d %d %d\n", strcasecmp("Hello", "hELLo"), strcasecmp("abc", "abd") < 0,
         strncasecmp("ABCdef", "abcXYZ", 3));
  return 0;
}
|} "[, world]\n3\n0 1 0\n";
    c "bsearch" {|
int cmp_int(const void *a, const void *b) {
  return *(const int *)a - *(const int *)b;
}
int main(void) {
  int xs[7] = {2, 4, 8, 16, 32, 64, 128};
  int key = 16;
  int *hit = (int *)bsearch(&key, xs, 7, sizeof(int), cmp_int);
  printf("%d %d\n", hit != 0, (int)(hit - xs));
  int missing = 5;
  printf("%d\n", bsearch(&missing, xs, 7, sizeof(int), cmp_int) == 0);
  return 0;
}
|} "1 3\n1\n";
    c "qsort with comparator" {|
int cmp_desc(const void *a, const void *b) {
  return *(const int *)b - *(const int *)a;
}
int main(void) {
  int xs[6] = {3, 1, 4, 1, 5, 9};
  qsort(xs, 6, sizeof(int), cmp_desc);
  for (int i = 0; i < 6; i++) { printf("%d", xs[i]); }
  printf("\n");
  return 0;
}
|} "954311\n";
    c "sprintf and formats" {|
int main(void) {
  char buf[64];
  int n = sprintf(buf, "[%5d][%-5d][%05d][%x][%X][%o]", 42, 42, 42, 255, 255, 8);
  printf("%s %d\n", buf, n);
  sprintf(buf, "%c%s%%", '@', "mid");
  printf("%s\n", buf);
  return 0;
}
|} "[   42][42   ][00042][ff][FF][10] 33\n@mid%\n";
    c "float formats" {|
int main(void) {
  printf("%f|%.0f|%.3f\n", 3.14159, 2.718, 1.0 / 3.0);
  printf("%e\n", 12345.678);
  return 0;
}
|} "3.141590|3|0.333\n1.234568e+04\n";
    c "scanf" ~input:"42 -17 3.5 hello x" {|
int main(void) {
  int a; int b; double d; char word[16]; char ch;
  int n = scanf("%d %d %lf %s %c", &a, &b, &d, word, &ch);
  printf("%d: %d %d %.1f %s %c\n", n, a, b, d, word, ch);
  return 0;
}
|} "5: 42 -17 3.5 hello x\n";
    c "fgets lines" ~input:"first line\nsecond\n" {|
int main(void) {
  char buf[32];
  while (fgets(buf, 32, stdin) != 0) { printf("> %s", buf); }
  return 0;
}
|} "> first line\n> second\n";
    c "heap data structures" {|
struct node { int v; struct node *next; };
int main(void) {
  struct node *head = 0;
  for (int i = 1; i <= 5; i++) {
    struct node *n = (struct node *)malloc(sizeof(struct node));
    n->v = i * i;
    n->next = head;
    head = n;
  }
  int sum = 0;
  while (head != 0) {
    sum += head->v;
    struct node *next = head->next;
    free(head);
    head = next;
  }
  printf("%d\n", sum);
  return 0;
}
|} "55\n";
    c "calloc zeroing and realloc growth" {|
int main(void) {
  int *xs = (int *)calloc(4, sizeof(int));
  int zero_sum = xs[0] + xs[1] + xs[2] + xs[3];
  xs[0] = 11; xs[3] = 44;
  xs = (int *)realloc(xs, 8 * sizeof(int));
  printf("%d %d %d\n", zero_sum, xs[0], xs[3]);
  free(xs);
  return 0;
}
|} "0 11 44\n";
    c "global initializers" {|
int counters[4] = {1, 2};
const char *names[] = {"alpha", "beta", "gamma"};
struct cfg { int id; const char *label; };
struct cfg config = {7, "main"};
double factor = 2.5;
int main(void) {
  printf("%d %d %d %d\n", counters[0], counters[1], counters[2], counters[3]);
  printf("%s %s\n", names[2], config.label);
  printf("%d %.1f\n", config.id, factor);
  return 0;
}
|} "1 2 0 0\ngamma main\n7 2.5\n";
    c "constant global initializers" {|
int a = ~5; int b = 1 < 2; int c = 3 ? 4 : 5; int d = !0; int e = (1 && 2);
int main(void) {
  printf("%d %d %d %d %d\n", a, b, c, d, e);
  return 0;
}
|} "-6 1 4 1 1\n";
    c "string literal identity and indexing" {|
int main(void) {
  const char *s = "abcdef";
  printf("%c %c %d\n", s[0], *(s + 5), s[6]);
  char local[4] = "ab";
  printf("%d %d\n", local[2], local[3]);
  return 0;
}
|} "a f 0\n0 0\n";
    c "enum values" {|
enum state { IDLE, RUNNING = 5, DONE };
int main(void) {
  enum state s = DONE;
  printf("%d %d %d\n", IDLE, RUNNING, s);
  return 0;
}
|} "0 5 6\n";
    c "math functions" {|
int main(void) {
  printf("%.4f %.4f %.4f\n", sqrt(2.0), pow(2.0, 10.0), fabs(-3.25));
  printf("%.4f %.4f\n", floor(2.7), ceil(-2.7));
  printf("%.4f\n", fmod(7.5, 2.0));
  return 0;
}
|} "1.4142 1024.0000 3.2500\n2.0000 -2.0000\n1.5000\n";
    c "variadic printf width of arguments" {|
int main(void) {
  printf("%d %ld %u %c %s %.1f\n", -5, 123456789012345L, 77u, 'Z', "str", 0.5);
  return 0;
}
|} "-5 123456789012345 77 Z str 0.5\n";
    c "void casts and expression statements" {|
int effect = 0;
int touch(void) { effect++; return 9; }
int main(void) {
  (void)touch();
  touch();
  printf("%d\n", effect);
  return 0;
}
|} "2\n";
    c "nested function calls" {|
int inc(int x) { return x + 1; }
int twice(int x) { return x * 2; }
int main(void) {
  printf("%d\n", inc(twice(inc(inc(3)))));
  return 0;
}
|} "11\n";
    c "do not confuse typedef with variable" {|
typedef int number;
int main(void) {
  number n = 3;
  int number2 = n * 2;
  printf("%d\n", number2);
  return 0;
}
|} "6\n";
    c "pointer to pointer" {|
int main(void) {
  int x = 5;
  int *p = &x;
  int **pp = &p;
  **pp = 9;
  printf("%d %d\n", x, **pp);
  int y = 100;
  *pp = &y;
  printf("%d\n", *p);
  return 0;
}
|} "9 9\n100\n";
    c "array of structs" {|
struct item { int id; int qty; };
int main(void) {
  struct item cart[3];
  for (int i = 0; i < 3; i++) { cart[i].id = 100 + i; cart[i].qty = i * 2; }
  int total = 0;
  for (int i = 0; i < 3; i++) { total += cart[i].qty; }
  printf("%d %d %d\n", cart[0].id, cart[2].id, total);
  struct item *p = &cart[1];
  p->qty = 99;
  printf("%d\n", cart[1].qty);
  return 0;
}
|} "100 102 6\n99\n";
    c "struct with array field through pointer" {|
struct buf { int len; char data[12]; };
void fill(struct buf *b, const char *s) {
  b->len = (int)strlen(s);
  strcpy(b->data, s);
}
int main(void) {
  struct buf b;
  fill(&b, "nested");
  printf("%d %s %c\n", b.len, b.data, b.data[2]);
  return 0;
}
|} "6 nested s\n";
    c "char signedness in comparisons" {|
int main(void) {
  char c = (char)0x80;          /* -128 as signed char */
  unsigned char u = (unsigned char)0x80;
  printf("%d %d %d %d\n", c < 0, u > 127, c == -128, (int)u);
  return 0;
}
|} "1 1 1 128\n";
    c "unsigned wraparound in loop" {|
int main(void) {
  unsigned int u = 3;
  int steps = 0;
  while (u != 0) { u--; steps++; }
  u--;                           /* wraps to UINT_MAX */
  printf("%d %u\n", steps, u);
  return 0;
}
|} "3 4294967295\n";
    c "long arithmetic" {|
int main(void) {
  long big = 1000000007L;
  long sq = big * big;           /* wraps in 64-bit, well-defined here */
  printf("%ld %ld\n", big * 3, sq % 1000);
  unsigned long ub = (unsigned long)-1;
  printf("%lu\n", ub / 2u + 1u);
  return 0;
}
|} "3000000021 49\n9223372036854775808\n";
    c "hex/octal literals and bitmasks" {|
int main(void) {
  int flags = 0x0F | 010;        /* 15 | 8 */
  printf("%d %x %d\n", flags, flags & 0xFC, flags >> 2);
  return 0;
}
|} "15 c 3\n";
    c "nested conditionals and else-if chains" {|
const char *bucket(int n) {
  if (n < 0) { return "neg"; }
  else if (n == 0) { return "zero"; }
  else if (n < 10) { return "small"; }
  else { return n < 100 ? "medium" : "large"; }
}
int main(void) {
  printf("%s %s %s %s %s\n", bucket(-5), bucket(0), bucket(3), bucket(42),
         bucket(1000));
  return 0;
}
|} "neg zero small medium large\n";
    c "string escape coverage" {|
int main(void) {
  printf("tab:\there\n");
  printf("quote:\"q\" backslash:\\ char:%c\n", '\'');
  char nul_embedded[5] = "a\0b";
  printf("%d %d\n", nul_embedded[0], nul_embedded[2]);
  return 0;
}
|} "tab:\there\nquote:\"q\" backslash:\\ char:'\n97 98\n";
    c "pointer comparisons within object" {|
int main(void) {
  int xs[4] = {1, 2, 3, 4};
  int *lo = &xs[0];
  int *hi = &xs[3];
  printf("%d %d %d\n", lo < hi, hi - lo == 3, lo + 3 == hi);
  return 0;
}
|} "1 1 1\n";
    c "static-size matrix via function" {|
int det2(int m[2][2]) {
  return m[0][0] * m[1][1] - m[0][1] * m[1][0];
}
int main(void) {
  int m[2][2] = {{3, 1}, {4, 2}};
  printf("%d\n", det2(m));
  return 0;
}
|} "2\n";
    c "do-while with continue" {|
int main(void) {
  int i = 0;
  int evens = 0;
  do {
    i++;
    if (i % 2 != 0) { continue; }
    evens++;
  } while (i < 10);
  printf("%d %d\n", i, evens);
  return 0;
}
|} "10 5\n";
    c "casts in float global initializers" {|
double g1 = (int)2.5;
double g2 = (char)300;
double g3 = (float)0.1;
int main(void) {
  double l1 = (int)2.5;
  double l2 = (char)300;
  double l3 = (float)0.1;
  printf("%.17g %.17g %.17g\n", g1, g2, g3);
  printf("%.17g %.17g %.17g\n", l1, l2, l3);
  return 0;
}
|} "2 44 0.10000000149011612\n2 44 0.10000000149011612\n";
    c "float literal in a double global initializer" {|
double g = 0.1f;
int main(void) {
  double l = 0.1f;
  printf("%.17g %.17g\n", g, l);
  return 0;
}
|} "0.10000000149011612 0.10000000149011612\n";
    c "exit code propagation" {|
int main(void) {
  if (1) { exit(3); }
  return 0;
}
|} "";
  ]

(** Run [src] under Safe Sulong through [Engine.run], as every run, and
    return the managed run itself. *)
let sulong ?argv ?input ?step_limit ?detect_uninit (src : string) :
    Interp.run_result =
  Option.get
    (Engine.run ?argv ?input ?step_limit ?detect_uninit Engine.Safe_sulong src)
      .Engine.managed
