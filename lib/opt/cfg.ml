(** CFG utilities shared by the optimization passes: predecessor maps,
    reverse postorder, dominators (iterative algorithm) and dominance
    frontiers.  Functions here never mutate the IR. *)

type info = {
  order : string array;                    (** reverse postorder, entry first *)
  index : (string, int) Hashtbl.t;
  preds : (string, string list) Hashtbl.t;
  succs : (string, string list) Hashtbl.t;
  idom : (string, string) Hashtbl.t;       (** immediate dominator (not for entry) *)
  df : (string, string list) Hashtbl.t;    (** dominance frontier *)
}

let block_map (f : Irfunc.t) =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (b : Irfunc.block) -> Hashtbl.replace tbl b.Irfunc.label b) f.Irfunc.blocks;
  tbl

let compute (f : Irfunc.t) : info =
  let blocks = block_map f in
  let entry =
    match f.Irfunc.blocks with
    | b :: _ -> b.Irfunc.label
    | [] -> failwith "cfg: empty function"
  in
  (* DFS postorder from entry over reachable blocks. *)
  let visited = Hashtbl.create 16 in
  let postorder = ref [] in
  let rec dfs label =
    if not (Hashtbl.mem visited label) then begin
      Hashtbl.replace visited label ();
      (match Hashtbl.find_opt blocks label with
      | Some b ->
        List.iter dfs (Instr.term_successors b.Irfunc.term)
      | None -> ());
      postorder := label :: !postorder
    end
  in
  dfs entry;
  let order = Array.of_list !postorder in
  let index = Hashtbl.create 16 in
  Array.iteri (fun i l -> Hashtbl.replace index l i) order;
  let preds = Hashtbl.create 16 in
  let succs = Hashtbl.create 16 in
  Array.iter (fun l -> Hashtbl.replace preds l []) order;
  Array.iter
    (fun l ->
      let b = Hashtbl.find blocks l in
      let ss =
        List.filter (Hashtbl.mem visited) (Instr.term_successors b.Irfunc.term)
      in
      Hashtbl.replace succs l ss;
      List.iter
        (fun s -> Hashtbl.replace preds s (l :: Hashtbl.find preds s))
        ss)
    order;
  (* Cooper-Harvey-Kennedy iterative dominators over RPO indices. *)
  let n = Array.length order in
  let idom_arr = Array.make n (-1) in
  idom_arr.(0) <- 0;
  let intersect a b =
    let a = ref a and b = ref b in
    while !a <> !b do
      while !a > !b do
        a := idom_arr.(!a)
      done;
      while !b > !a do
        b := idom_arr.(!b)
      done
    done;
    !a
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 1 to n - 1 do
      let label = order.(i) in
      let pred_idxs =
        List.filter_map
          (fun p ->
            match Hashtbl.find_opt index p with
            | Some j when idom_arr.(j) >= 0 || j = 0 -> Some j
            | _ -> None)
          (Hashtbl.find preds label)
      in
      match pred_idxs with
      | [] -> ()
      | first :: rest ->
        let new_idom = List.fold_left (fun acc j ->
            if idom_arr.(j) >= 0 then intersect acc j else acc) first rest
        in
        if idom_arr.(i) <> new_idom then begin
          idom_arr.(i) <- new_idom;
          changed := true
        end
    done
  done;
  let idom = Hashtbl.create 16 in
  for i = 1 to n - 1 do
    if idom_arr.(i) >= 0 then Hashtbl.replace idom order.(i) order.(idom_arr.(i))
  done;
  (* Dominance frontiers. *)
  let df = Hashtbl.create 16 in
  Array.iter (fun l -> Hashtbl.replace df l []) order;
  Array.iteri
    (fun i label ->
      let ps = Hashtbl.find preds label in
      if List.length ps >= 2 then
        List.iter
          (fun p ->
            match Hashtbl.find_opt index p with
            | None -> ()
            | Some pj ->
              let runner = ref pj in
              while !runner <> idom_arr.(i) && !runner >= 0 do
                let rl = order.(!runner) in
                let cur = Hashtbl.find df rl in
                if not (List.mem label cur) then
                  Hashtbl.replace df rl (label :: cur);
                runner := idom_arr.(!runner)
              done)
          ps)
    order;
  { order; index; preds; succs; idom; df }

(** Does [a] dominate [b]?  (walk idom chain) *)
let dominates info a b =
  let rec walk l = if l = a then true
    else match Hashtbl.find_opt info.idom l with
      | Some up when up <> l -> walk up
      | _ -> false
  in
  walk b

(** Natural loops: for each back edge u->h (h dominates u), the loop body
    is every block that reaches u without going through h.  Returns
    (header, body including header) pairs. *)
let natural_loops (f : Irfunc.t) (info : info) : (string * string list) list =
  let blocks = block_map f in
  let loops = ref [] in
  Array.iter
    (fun u ->
      let b = Hashtbl.find blocks u in
      List.iter
        (fun h ->
          if Hashtbl.mem info.index h && dominates info h u then begin
            (* collect body by reverse reachability from u, stopping at h *)
            let body = Hashtbl.create 8 in
            Hashtbl.replace body h ();
            let rec collect x =
              if not (Hashtbl.mem body x) then begin
                Hashtbl.replace body x ();
                List.iter collect
                  (Option.value (Hashtbl.find_opt info.preds x) ~default:[])
              end
            in
            collect u;
            loops := (h, List.of_seq (Hashtbl.to_seq_keys body)) :: !loops
          end)
        (Instr.term_successors b.Irfunc.term))
    info.order;
  !loops

(** Remove blocks unreachable from the entry, dropping phi edges that
    came from removed blocks; whether any block was removed. *)
let remove_unreachable (f : Irfunc.t) : bool =
  let info = compute f in
  let reachable = Hashtbl.create 16 in
  Array.iter (fun l -> Hashtbl.replace reachable l ()) info.order;
  let before = List.length f.Irfunc.blocks in
  f.Irfunc.blocks <-
    List.filter (fun (b : Irfunc.block) -> Hashtbl.mem reachable b.Irfunc.label)
      f.Irfunc.blocks;
  List.iter
    (fun (b : Irfunc.block) ->
      b.Irfunc.instrs <-
        List.map
          (fun i ->
            match i with
            | Instr.Phi (r, s, incoming) ->
              Instr.Phi
                (r, s, List.filter (fun (l, _) -> Hashtbl.mem reachable l) incoming)
            | i -> i)
          b.Irfunc.instrs)
    f.Irfunc.blocks;
  List.length f.Irfunc.blocks < before
