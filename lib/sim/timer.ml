type payload = ..

type payload += Tick

type id = int

type t = { id : id; owner : int; deadline : Time.t; tag : string; payload : payload }

let attacker_owner = -1
