module Pq = Wx_util.Pq

(* queued.(i) is the key of i's newest entry; older entries of i are
   superseded and dropped when they surface. *)
type t = { key : int -> int; queued : int array; heap : int Pq.t }

let lowered h i =
  let k = h.key i in
  h.queued.(i) <- k;
  Pq.push h.heap k i

let create n ~key =
  let h = { key; queued = Array.make n 0; heap = Pq.create_min () } in
  for i = 0 to n - 1 do
    lowered h i
  done;
  h

let rec top h ~in_play =
  match Pq.peek h.heap with
  | Some (k, i) when in_play i && k = h.queued.(i) ->
      if k = h.key i then i
      else begin
        (* key i rose since: requeue, and look again. *)
        ignore (Pq.pop h.heap);
        lowered h i;
        top h ~in_play
      end
  | Some _ ->
      ignore (Pq.pop h.heap);
      top h ~in_play
  | None -> -1
