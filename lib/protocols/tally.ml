(* Each key's voters are a bitset over logical node ids plus a running
   count of distinct voters.  At n=512 a voter set is 64 bytes of bits,
   where a per-key hashtable grew to hundreds of scattered buckets; a vote
   is one hash of the key and a bit test. *)

open Bftsim_sim

type entry = { voters : Dense_set.t; mutable count : int }

type 'k t = {
  table : ('k, entry) Hashtbl.t;
  mutable order : 'k list;  (** Keys in first-seen order, newest first. *)
}

let create () = { table = Hashtbl.create 32; order = [] }

let entry t key =
  match Hashtbl.find t.table key with
  | e -> e
  | exception Not_found ->
    let e = { voters = Dense_set.create (); count = 0 } in
    Hashtbl.add t.table key e;
    t.order <- key :: t.order;
    e

let add t key ~voter =
  if voter < 0 then invalid_arg "Tally.add: negative voter";
  let e = entry t key in
  if not (Dense_set.mem e.voters voter) then begin
    Dense_set.add e.voters voter;
    e.count <- e.count + 1
  end;
  e.count

let count t key = match Hashtbl.find t.table key with e -> e.count | exception Not_found -> 0

let has_voted t key ~voter =
  match Hashtbl.find t.table key with
  | e -> Dense_set.mem e.voters voter
  | exception Not_found -> false

let voters t key =
  match Hashtbl.find t.table key with
  | e -> Dense_set.elements e.voters
  | exception Not_found -> []

let keys t = t.order

let max_count t =
  (* Walk keys in first-seen order so ties resolve deterministically. *)
  List.fold_left
    (fun best key ->
      let c = count t key in
      match best with Some (_, bc) when bc >= c -> best | _ -> Some (key, c))
    None (List.rev t.order)

let clear t =
  Hashtbl.reset t.table;
  t.order <- []
