(** DESIGN.md §3 must name exactly the modules of each library under
    lib/: adding, renaming or deleting a module without updating the
    inventory fails here. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let is_module_name s =
  s <> ""
  && (match s.[0] with 'A' .. 'Z' -> true | _ -> false)
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' -> true | _ -> false)
       s

(* Backticked words outside parentheses: the names a table cell lists,
   not the ones its parenthesized descriptions mention. *)
let names (cell : string) : string list =
  let acc = ref [] and depth = ref 0 and i = ref 0 in
  let n = String.length cell in
  while !i < n do
    (match cell.[!i] with
    | '(' -> incr depth
    | ')' -> decr depth
    | '`' when !depth = 0 -> (
      match String.index_from_opt cell (!i + 1) '`' with
      | Some j ->
        acc := String.sub cell (!i + 1) (j - !i - 1) :: !acc;
        i := j
      | None -> i := n)
    | _ -> ());
    incr i
  done;
  List.rev !acc

(* (library directory, listed modules) for every `lib/...` row of §3. *)
let inventory () : (string * string list) list =
  let rec section = function
    | l :: rest when String.starts_with ~prefix:"## 3." l -> body rest
    | _ :: rest -> section rest
    | [] -> Alcotest.fail "DESIGN.md has no section 3"
  and body = function
    | l :: _ when String.starts_with ~prefix:"## " l -> []
    | l :: rest -> l :: body rest
    | [] -> []
  in
  section (String.split_on_char '\n' (read_file "../DESIGN.md"))
  |> List.filter_map (fun line ->
         match String.split_on_char '|' line with
         | "" :: lib :: modules :: _ -> (
           match names lib with
           | [ dir ] when String.starts_with ~prefix:"lib/" dir ->
             let dir =
               if String.ends_with ~suffix:"/" dir then
                 String.sub dir 0 (String.length dir - 1)
               else dir
             in
             Some (dir, List.filter is_module_name (names modules))
           | _ -> None)
         | _ -> None)

let modules_in dir =
  Sys.readdir ("../" ^ dir)
  |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".ml")
  |> List.map (fun f -> String.capitalize_ascii (Filename.chop_suffix f ".ml"))

let sorted l = List.sort_uniq compare l

let test_libraries_listed () =
  let libs =
    Sys.readdir "../lib" |> Array.to_list
    |> List.filter (fun d -> Sys.is_directory ("../lib/" ^ d))
    |> List.map (fun d -> "lib/" ^ d)
  in
  Alcotest.(check (list string))
    "one row per library" (sorted libs)
    (sorted (List.map fst (inventory ())))

let test_modules_listed () =
  List.iter
    (fun (dir, listed) ->
      Alcotest.(check (list string))
        (dir ^ " modules") (sorted (modules_in dir)) (sorted listed))
    (inventory ())

let () =
  Alcotest.run "design"
    [
      ( "inventory",
        [
          Alcotest.test_case "every library has a row" `Quick
            test_libraries_listed;
          Alcotest.test_case "rows name exactly the modules" `Quick
            test_modules_listed;
        ] );
    ]
