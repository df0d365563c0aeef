module Attack = Bftsim_attack

(* One schedule round over the physical replica set, in symmetry-reduced
   form: either fully connected, or a two-block partition described by how
   many honest nodes sit in block 1 and which block each twin half joins.
   Honest nodes are interchangeable under this encoding (block 1 always
   takes the honest prefix), which is the Twins paper's partition-shape
   pruning: with leaders pinned to the twinned identity, executions differ
   only up to a relabeling of honest replicas. *)
type round =
  | Healed
  | Split of { h : int; a : int; b : int }
      (** [h] honest nodes (logical 1..h) in block 1, the rest in block 2;
          [a]/[b] in [{1, 2}] place twin half A (physical 0) and half B
          (physical n). *)

type schedule = {
  rounds : round list;
  pinned : int;  (** Views 0..pinned-1 are led by the twinned identity; 0 = no pinning. *)
}

type stats = { enumerated : int; unique : int; emitted : int }

(* The twinned logical identity every enumerated schedule uses. *)
let twin = 0

(* --- canonicalization -------------------------------------------------- *)

(* Two symmetries identify schedules: swapping the two blocks of any round
   (block labels are arbitrary) and swapping the two twin halves across the
   whole schedule (the halves run identical code and credentials; only
   their physical ids differ).  The canonical key is the least encoding
   under both. *)

let swap_blocks ~n = function
  | Healed -> Healed
  | Split { h; a; b } -> Split { h = n - 1 - h; a = 3 - a; b = 3 - b }

let swap_halves = function
  | Healed -> Healed
  | Split { h; a; b } -> Split { h; a = b; b = a }

let encode = function Healed -> (-1, 0, 0) | Split { h; a; b } -> (h, a, b)

let canonical_key ~n { rounds; pinned } =
  let min_round r = min (encode r) (encode (swap_blocks ~n r)) in
  let variant rs = List.map min_round rs in
  (min (variant rounds) (variant (List.map swap_halves rounds)), pinned)

(* --- enumeration ------------------------------------------------------- *)

let round_options ~n =
  let splits =
    List.concat_map
      (fun h ->
        List.concat_map
          (fun a ->
            List.filter_map
              (fun b ->
                let size1 = h + (if a = 1 then 1 else 0) + (if b = 1 then 1 else 0) in
                let size2 = n - 1 - h + (if a = 2 then 1 else 0) + (if b = 2 then 1 else 0) in
                (* An empty block means the round is really fully connected;
                   Healed already covers it. *)
                if size1 = 0 || size2 = 0 then None else Some (Split { h; a; b }))
              [ 1; 2 ])
          [ 1; 2 ])
      (List.init n Fun.id)
  in
  Healed :: splits

let rec power options = function
  | 0 -> [ [] ]
  | k -> List.concat_map (fun rest -> List.map (fun o -> o :: rest) options) (power options (k - 1))

(* Most-adversarial-first emission order: rounds that keep a twin half away
   from the honest-majority block create the stale state and failed views
   the attack needs, and pinning leadership on the twin concentrates those
   failures.  Budgeted campaigns examine those schedules first. *)
let adversarial_weight ~n { rounds; pinned } =
  let per_round = function
    | Healed -> 0
    | Split { h; a; b } ->
      let majority = if 2 * h >= n - 1 then 1 else 2 in
      (if a <> majority then 1 else 0) + if b <> majority then 1 else 0
  in
  List.fold_left (fun acc r -> acc + per_round r) (if pinned > 0 then 2 else 0) rounds

let enumerate ~n ~rounds =
  if n < 2 then invalid_arg "Twins.Enumerate.enumerate: n < 2";
  if rounds < 1 then invalid_arg "Twins.Enumerate.enumerate: rounds < 1";
  (* The pinned prefix is kept short deliberately: every partial-synchrony
     protocol doubles its view timeout while stuck, so traversing k failed
     pinned views costs O(lambda * 2^k) for {e correct} implementations
     too.  A prefix of rounds + 1 views keeps that burden bounded (~2^4
     lambda) while still handing the twin a run of leader slots; genuine
     pacemaker weaknesses (hotstuff-ns) stall under plain rotation anyway. *)
  let pinned_options = [ 0; rounds + 1 ] in
  let raw =
    List.concat_map
      (fun rs ->
        if List.for_all (fun r -> r = Healed) rs then []
        else List.map (fun pinned -> { rounds = rs; pinned }) pinned_options)
      (power (round_options ~n) rounds)
  in
  let seen = Hashtbl.create 1024 in
  let unique =
    List.filter
      (fun s ->
        let key = canonical_key ~n s in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.replace seen key ();
          true
        end)
      raw
  in
  let ordered =
    List.stable_sort
      (fun s1 s2 ->
        match compare (adversarial_weight ~n s2) (adversarial_weight ~n s1) with
        | 0 -> compare (canonical_key ~n s1) (canonical_key ~n s2)
        | c -> c)
      unique
  in
  (ordered, { enumerated = List.length raw; unique = List.length unique; emitted = 0 })

(* --- compilation to an executable schedule ----------------------------- *)

let to_twins_schedule ~n ~round_ms { rounds; pinned } =
  let groups = function
    | Healed -> []
    | Split { h; a; b } ->
      let honest1 = List.init h (fun i -> i + 1) in
      let honest2 = List.init (n - 1 - h) (fun i -> i + 1 + h) in
      let block1 = (if a = 1 then [ twin ] else []) @ (if b = 1 then [ n ] else []) @ honest1 in
      let block2 = (if a = 2 then [ twin ] else []) @ (if b = 2 then [ n ] else []) @ honest2 in
      [ block1; block2 ]
  in
  {
    Attack.Twins_schedule.ids = [ twin ];
    round_ms;
    rounds = List.map groups rounds;
    leaders = List.init pinned (fun _ -> twin);
  }
