type kind = Send | Deliver | Drop | Lost | Timer_fired | Decide

type entry = {
  at_ms : float;
  kind : kind;
  node : int;
  peer : int;
  tag : string;
  detail : string;
}

(* [delays] is indexed by message id, which the controller issues densely
   from 1: one unboxed float per message, nan for one never queued. *)
type t = { mutable rev_entries : entry list; mutable count : int; mutable delays : Float.Array.t }

let create () = { rev_entries = []; count = 0; delays = Float.Array.make 0 Float.nan }

let record t entry =
  t.rev_entries <- entry :: t.rev_entries;
  t.count <- t.count + 1

let entries t = List.rev t.rev_entries

let length t = t.count

let entry_equal a b =
  Float.equal a.at_ms b.at_ms && a.kind = b.kind && a.node = b.node && a.peer = b.peer
  && String.equal a.tag b.tag && String.equal a.detail b.detail

let equal a b = a.count = b.count && List.for_all2 entry_equal (entries a) (entries b)

let first_divergence a b =
  let rec walk i xs ys =
    match (xs, ys) with
    | [], [] -> None
    | x :: xs', y :: ys' -> if entry_equal x y then walk (i + 1) xs' ys' else Some (i, Some x, Some y)
    | x :: _, [] -> Some (i, Some x, None)
    | [], y :: _ -> Some (i, None, Some y)
  in
  walk 0 (entries a) (entries b)

let record_delay t ~id delay_ms =
  let capacity = Float.Array.length t.delays in
  if id >= capacity then begin
    let grown = Float.Array.make (Int.max 1024 (2 * id)) Float.nan in
    Float.Array.blit t.delays 0 grown 0 capacity;
    t.delays <- grown
  end;
  Float.Array.set t.delays id delay_ms

let delay t id =
  if id >= Float.Array.length t.delays then None
  else
    let d = Float.Array.get t.delays id in
    if Float.is_nan d then None else Some d

let delays t =
  List.filter_map
    (fun id -> Option.map (fun d -> (id, d)) (delay t id))
    (List.init (Float.Array.length t.delays) Fun.id)

let decisions t =
  let per_node : (int, string list ref) Hashtbl.t = Hashtbl.create 16 in
  let nodes = ref [] in
  List.iter
    (fun e ->
      if e.kind = Decide then begin
        match Hashtbl.find_opt per_node e.node with
        | Some l -> l := e.tag :: !l
        | None ->
          Hashtbl.replace per_node e.node (ref [ e.tag ]);
          nodes := e.node :: !nodes
      end)
    (entries t);
  List.sort compare !nodes |> List.map (fun node -> (node, List.rev !(Hashtbl.find per_node node)))

let kind_to_string = function
  | Send -> "send"
  | Deliver -> "deliver"
  | Drop -> "drop"
  | Lost -> "lost"
  | Timer_fired -> "timer"
  | Decide -> "decide"

let pp_entry ppf e =
  Format.fprintf ppf "%10.3f %-8s node=%d peer=%d %s %s" e.at_ms (kind_to_string e.kind) e.node
    e.peer e.tag e.detail

let dump ppf t =
  List.iter (fun e -> Format.fprintf ppf "%a@." pp_entry e) (entries t)
