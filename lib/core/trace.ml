type kind = Send | Deliver | Drop | Lost | Timer_fired | Decide

type entry = {
  at_ms : float;
  kind : kind;
  node : int;
  peer : int;
  tag : string;
  detail : string;
}

type t = { mutable rev_entries : entry list; mutable count : int }

let create () = { rev_entries = []; count = 0 }

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

(* Per (src, dst, tag) link: every send's delay cell, newest first, and
   the sends still in flight, oldest first. *)
type link = { mutable cells : float option ref list; mutable flying : (float * float option ref) list }

let delays t =
  (* Arrivals (deliveries, and losses at a down node) take the oldest send
     in flight; the event queue's deterministic ordering makes this FIFO
     reconstruction exact.  A send-time drop is recorded in the same
     routing step as its send, so it takes the newest; its cell stays
     [None], holding the position replay's per-link sequence numbers need. *)
  let links : (int * int * string, link) Hashtbl.t = Hashtbl.create 64 in
  let arrive key at_ms =
    match Hashtbl.find_opt links key with
    | Some ({ flying = (sent_at, cell) :: rest; _ } as l) ->
      l.flying <- rest;
      cell := Some (at_ms -. sent_at)
    | _ -> ()
  in
  List.iter
    (fun e ->
      let key = (e.node, e.peer, e.tag) in
      match e.kind with
      | Send ->
        let l =
          match Hashtbl.find_opt links key with
          | Some l -> l
          | None ->
            let l = { cells = []; flying = [] } in
            Hashtbl.replace links key l;
            l
        in
        let cell = ref None in
        l.cells <- cell :: l.cells;
        l.flying <- l.flying @ [ (e.at_ms, cell) ]
      | Deliver -> arrive (e.peer, e.node, e.tag) e.at_ms
      | Lost -> arrive key e.at_ms
      | Drop -> (
        match Hashtbl.find_opt links key with
        | Some l -> l.flying <- List.rev (match List.rev l.flying with _ :: older -> older | [] -> [])
        | None -> ())
      | Timer_fired | Decide -> ())
    (entries t);
  Hashtbl.fold (fun key l acc -> (key, List.rev_map (fun c -> !c) l.cells) :: acc) links []

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
