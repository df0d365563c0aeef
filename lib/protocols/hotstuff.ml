let name = "hotstuff-ns"

let model = Protocol_intf.Partially_synchronous

let pipelined = true

type node = Chained_core.node

let create ctx = Chained_core.create Chained_core.Naive_doubling ctx

let on_start = Chained_core.on_start

let on_message = Chained_core.on_message

let on_timer = Chained_core.on_timer

let view = Chained_core.current_view

let on_restart = Chained_core.on_restart
