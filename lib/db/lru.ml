(* Entries thread an intrusive circular doubly-linked recency list:
   [head] is the most recently touched entry and [head.prev] the LRU
   eviction victim.  A lone entry links to itself, so links need no
   option blocks. *)
type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node;
  mutable next : ('k, 'v) node;
}

type ('k, 'v) t = {
  cap : int option;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option;
}

let create ?cap size =
  (match cap with
  | Some c when c < 1 -> invalid_arg (Printf.sprintf "Lru.create: cap %d < 1" c)
  | _ -> ());
  { cap; table = Hashtbl.create size; head = None }

let cap t = t.cap

let detach t e =
  if e.next == e then t.head <- None
  else begin
    e.prev.next <- e.next;
    e.next.prev <- e.prev;
    (match t.head with Some h when h == e -> t.head <- Some e.next | _ -> ());
    e.prev <- e;
    e.next <- e
  end

let push_front t e =
  (match t.head with
  | None -> ()
  | Some h ->
      e.next <- h;
      e.prev <- h.prev;
      h.prev.next <- e;
      h.prev <- e);
  t.head <- Some e

let touch t e =
  match t.head with
  | Some h when h == e -> ()
  | _ ->
      detach t e;
      push_front t e

let find t k =
  match Hashtbl.find_opt t.table k with
  | Some e ->
      touch t e;
      Some e.value
  | None -> None

let mem t k = Hashtbl.mem t.table k

let add t k v =
  (match Hashtbl.find_opt t.table k with
  | Some e ->
      e.value <- v;
      touch t e
  | None ->
      let rec e = { key = k; value = v; prev = e; next = e } in
      Hashtbl.replace t.table k e;
      push_front t e);
  match t.cap with
  | None -> 0
  | Some cap ->
      let rec evict n =
        if Hashtbl.length t.table <= cap then n
        else
          match t.head with
          | None -> n (* unreachable: the table is not empty *)
          | Some h ->
              let victim = h.prev in
              detach t victim;
              Hashtbl.remove t.table victim.key;
              evict (n + 1)
      in
      evict 0

let length t = Hashtbl.length t.table
let iter f t = Hashtbl.iter (fun k e -> f k e.value) t.table
