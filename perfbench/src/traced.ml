(* Outside-in tracing of a protocol: a [Protocol_intf.S] functor that
   replaces the capability fields of the [Context.t] a replica receives
   with closures bracketed by {!Span} calls, and brackets the replica's own
   entry points as handler spans.  The program is untouched; the wrapped
   protocol is registered under [prefix ^ name] and selected by config. *)

open Bftsim_protocols

let prefix = "traced-"

let traced_name name = prefix ^ name

let original_name name =
  let k = String.length prefix in
  if String.length name > k && String.sub name 0 k = prefix then
    String.sub name k (String.length name - k)
  else name

let wrap_ctx (c : Context.t) : Context.t =
  {
    c with
    send_raw =
      (fun ~dst ~tag ~size payload ->
        Span.enter ();
        match c.send_raw ~dst ~tag ~size payload with
        | () -> Span.leave Span.send 1
        | exception e ->
          Span.leave Span.send 1;
          raise e);
    broadcast_raw =
      (fun ~include_self ~tag ~size payload ->
        let recipients = if include_self then c.n else c.n - 1 in
        Span.enter ();
        match c.broadcast_raw ~include_self ~tag ~size payload with
        | () -> Span.leave Span.send recipients
        | exception e ->
          Span.leave Span.send recipients;
          raise e);
    set_timer =
      (fun ~delay_ms ~tag payload ->
        Span.enter ();
        match c.set_timer ~delay_ms ~tag payload with
        | id ->
          Span.leave Span.timer 1;
          id
        | exception e ->
          Span.leave Span.timer 1;
          raise e);
    cancel_timer =
      (fun id ->
        Span.enter ();
        match c.cancel_timer id with
        | () -> Span.leave Span.timer 1
        | exception e ->
          Span.leave Span.timer 1;
          raise e);
    decide =
      (fun value ->
        Span.enter ();
        match c.decide value with
        | () -> Span.leave Span.decide 1
        | exception e ->
          Span.leave Span.decide 1;
          raise e);
    request_proposal =
      (fun ~slot ~width ~default k ->
        (* The continuation is protocol code, possibly deferred by the
           workload layer: it is charged to the handler layer wherever it
           runs. *)
        let k' proposal =
          Span.enter ();
          match k proposal with
          | used ->
            Span.leave Span.handler 1;
            used
          | exception e ->
            Span.leave Span.handler 1;
            raise e
        in
        Span.enter ();
        match c.request_proposal ~slot ~width ~default k' with
        | () -> Span.leave Span.request_proposal 1
        | exception e ->
          Span.leave Span.request_proposal 1;
          raise e);
    persist =
      (fun ~key value ->
        Span.enter ();
        match c.persist ~key value with
        | () -> Span.leave Span.persist 1
        | exception e ->
          Span.leave Span.persist 1;
          raise e);
  }

module Wrap (P : Protocol_intf.S) : Protocol_intf.S = struct
  let name = traced_name P.name
  let model = P.model
  let pipelined = P.pipelined

  (* The controller hands a replica the same context on every call, so the
     wrapped context is built once per replica and reused; a different
     context (never seen in practice) is wrapped afresh. *)
  type node = { inner : P.node; orig : Context.t; wrapped : Context.t }

  let ctx_for node (c : Context.t) = if c == node.orig then node.wrapped else wrap_ctx c

  let create c =
    let wrapped = wrap_ctx c in
    { inner = P.create wrapped; orig = c; wrapped }

  let on_start node c =
    Span.enter ();
    match P.on_start node.inner (ctx_for node c) with
    | () -> Span.leave Span.handler 1
    | exception e ->
      Span.leave Span.handler 1;
      raise e

  let on_message node c msg =
    Span.enter ();
    match P.on_message node.inner (ctx_for node c) msg with
    | () -> Span.leave Span.handler 1
    | exception e ->
      Span.leave Span.handler 1;
      raise e

  let on_timer node c timer =
    Span.enter ();
    match P.on_timer node.inner (ctx_for node c) timer with
    | () -> Span.leave Span.handler 1
    | exception e ->
      Span.leave Span.handler 1;
      raise e

  let on_restart node c =
    Span.enter ();
    match P.on_restart node.inner (ctx_for node c) with
    | () -> Span.leave Span.handler 1
    | exception e ->
      Span.leave Span.handler 1;
      raise e

  let view node = P.view node.inner
end

(* Registers a traced twin of every protocol registered so far.
   Idempotent, so set-up can run several times in one process. *)
let register_all () =
  List.iter
    (fun (module P : Protocol_intf.S) ->
      if original_name P.name = P.name && Registry.find (traced_name P.name) = None then
        Registry.register (module Wrap (P) : Protocol_intf.S))
    (Registry.all ())

(* A result as the untraced run would report it: the original protocol
   name restored, so fingerprints and name-keyed oracles see no change. *)
let restore (r : Bftsim_core.Controller.result) =
  let config = r.Bftsim_core.Controller.config in
  {
    r with
    Bftsim_core.Controller.config =
      { config with Bftsim_core.Config.protocol = original_name config.Bftsim_core.Config.protocol };
  }
