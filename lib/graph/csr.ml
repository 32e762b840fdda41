module Bitset = Stdx.Bitset
module Dynvec = Stdx.Dynvec

type t = {
  size : int;
  xadj : int array;  (* length size+1; row v is adj.[xadj.(v) .. xadj.(v+1)) *)
  adj : int array;  (* each row sorted ascending, duplicates removed *)
  weights : int array;
  labels : string array option;  (* None: every label is the node index *)
}

let n g = g.size

let check g v =
  if v < 0 || v >= g.size then
    invalid_arg (Printf.sprintf "Csr: node %d out of range [0, %d)" v g.size)

(* ------------------------------------------------------------------ *)
(* Builder *)

module Builder = struct
  type csr = t

  type t = {
    b_size : int;
    e_src : int Dynvec.t;
    e_dst : int Dynvec.t;
    b_weights : int array;
    mutable b_labels : string array option;
  }

  let create ?(default_weight = 1) size =
    if size < 0 then invalid_arg "Csr.Builder.create: negative size";
    if default_weight < 0 then invalid_arg "Csr.Builder.create: negative weight";
    {
      b_size = size;
      e_src = Dynvec.create ();
      e_dst = Dynvec.create ();
      b_weights = Array.make size default_weight;
      b_labels = None;
    }

  let check b v =
    if v < 0 || v >= b.b_size then
      invalid_arg
        (Printf.sprintf "Csr.Builder: node %d out of range [0, %d)" v b.b_size)

  let add_edge b u v =
    check b u;
    check b v;
    if u = v then invalid_arg "Csr.Builder.add_edge: self-loop";
    Dynvec.push b.e_src u;
    Dynvec.push b.e_dst v

  let set_weight b v w =
    check b v;
    if w < 0 then invalid_arg "Csr.Builder.set_weight: negative weight";
    b.b_weights.(v) <- w

  let set_label b v s =
    check b v;
    let labels =
      match b.b_labels with
      | Some l -> l
      | None ->
          let l = Array.init b.b_size string_of_int in
          b.b_labels <- Some l;
          l
    in
    labels.(v) <- s

  (* Sort adj[lo, hi) ascending, in place, no allocation: insertion sort
     for short rows (builder output is mostly ascending runs), heapsort
     above that — gadget rows concatenate several ascending blocks in
     descending block order, which is the insertion-sort worst case. *)
  let insertion_sort a lo hi =
    for i = lo + 1 to hi - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done

  let heap_sort a lo hi =
    let len = hi - lo in
    let sift root last =
      (* max-heap over a[lo+0 .. lo+last] *)
      let i = ref root in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 in
        if l > last then continue := false
        else begin
          let c = if l + 1 <= last && a.(lo + l + 1) > a.(lo + l) then l + 1 else l in
          if a.(lo + c) > a.(lo + !i) then begin
            let tmp = a.(lo + c) in
            a.(lo + c) <- a.(lo + !i);
            a.(lo + !i) <- tmp;
            i := c
          end
          else continue := false
        end
      done
    in
    for root = (len / 2) - 1 downto 0 do
      sift root (len - 1)
    done;
    for last = len - 1 downto 1 do
      let tmp = a.(lo) in
      a.(lo) <- a.(lo + last);
      a.(lo + last) <- tmp;
      sift 0 (last - 1)
    done

  let sort_range a lo hi =
    if hi - lo <= 32 then insertion_sort a lo hi else heap_sort a lo hi

  let finish ?shard b : csr =
    let size = b.b_size in
    let ne = Dynvec.length b.e_src in
    (* Degree count, both directions. *)
    let deg = Array.make (max size 1) 0 in
    for i = 0 to ne - 1 do
      let u = Dynvec.get b.e_src i and v = Dynvec.get b.e_dst i in
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1
    done;
    let xadj = Array.make (size + 1) 0 in
    for v = 0 to size - 1 do
      xadj.(v + 1) <- xadj.(v) + deg.(v)
    done;
    let adj = Array.make (max xadj.(size) 1) 0 in
    let fill = Array.copy xadj in
    for i = 0 to ne - 1 do
      let u = Dynvec.get b.e_src i and v = Dynvec.get b.e_dst i in
      adj.(fill.(u)) <- v;
      fill.(u) <- fill.(u) + 1;
      adj.(fill.(v)) <- u;
      fill.(v) <- fill.(v) + 1
    done;
    (* Sort every row — the dominant cost of [finish] at gadget scale.
       Rows are disjoint slices of [adj], so an injected [shard] may run
       the row ranges on separate domains; sorted output is identical
       either way, keeping the final CSR bytes shard-independent. *)
    let sort_rows lo hi =
      for v = lo to hi - 1 do
        sort_range adj xadj.(v) xadj.(v + 1)
      done
    in
    (match shard with
    | None -> sort_rows 0 size
    | Some run -> run ~lo:0 ~hi:size sort_rows);
    (* Compact duplicates in one sweep.  [w] chases [r] through the
       whole array; xadj is rewritten as rows close. *)
    let w = ref 0 in
    let xadj' = Array.make (size + 1) 0 in
    for v = 0 to size - 1 do
      let lo = xadj.(v) and hi = xadj.(v + 1) in
      xadj'.(v) <- !w;
      let prev = ref (-1) in
      for r = lo to hi - 1 do
        if adj.(r) <> !prev then begin
          prev := adj.(r);
          adj.(!w) <- adj.(r);
          incr w
        end
      done
    done;
    xadj'.(size) <- !w;
    let adj =
      if !w = Array.length adj then adj else Array.sub adj 0 (max !w 1)
    in
    {
      size;
      xadj = xadj';
      adj;
      weights = Array.copy b.b_weights;
      labels = Option.map Array.copy b.b_labels;
    }
end

(* ------------------------------------------------------------------ *)
(* Closed-form rows *)

module Row = struct
  type t = {
    adj : int array;
    size : int;
    mutable node : int;  (* the row being filled *)
    mutable pos : int;  (* next write in [adj] *)
    mutable stop : int;  (* end of the row in [adj] *)
    mutable last : int;  (* last entry written, -1 at row start *)
  }

  let fail r fmt =
    Printf.ksprintf
      (fun s -> invalid_arg (Printf.sprintf "Csr.of_rows: row %d: %s" r.node s))
      fmt

  (* Append [lo, hi): ascending after [last], in range, no self-loop,
     within the row's degree. *)
  let push_range r lo hi =
    if lo < hi then begin
      if lo < 0 || hi > r.size then
        fail r "entry %d out of range [0, %d)" (if lo < 0 then lo else hi - 1) r.size;
      if lo <= r.last then fail r "%d after %d is not ascending" lo r.last;
      if lo <= r.node && r.node < hi then fail r "self-loop";
      if r.pos + (hi - lo) > r.stop then fail r "longer than its degree";
      let adj = r.adj and base = r.pos - lo in
      for u = lo to hi - 1 do
        adj.(base + u) <- u
      done;
      r.pos <- r.pos + (hi - lo);
      r.last <- hi - 1
    end

  let push r u = push_range r u (u + 1)
end

let of_rows ?shard ~weights size ~degree ~fill =
  if size < 0 then invalid_arg "Csr.of_rows: negative size";
  if Array.length weights <> size then
    invalid_arg "Csr.of_rows: weights length differs from the node count";
  if Array.exists (fun w -> w < 0) weights then
    invalid_arg "Csr.of_rows: negative weight";
  let xadj = Array.make (size + 1) 0 in
  for v = 0 to size - 1 do
    let d = degree v in
    if d < 0 then invalid_arg (Printf.sprintf "Csr.of_rows: row %d: negative degree" v);
    xadj.(v + 1) <- xadj.(v) + d
  done;
  let adj = Array.make (max xadj.(size) 1) 0 in
  (* Rows are disjoint slices of [adj], so the injected [shard] may fill
     row ranges on separate domains; each range gets its own cursor.
     [filled] flags every completed row, so a [shard] that skips part of
     [0, size) is caught below instead of leaving zeros behind. *)
  let filled = Bytes.make size '\000' in
  let fill_rows lo hi =
    let r = { Row.adj; size; node = lo; pos = 0; stop = 0; last = -1 } in
    for v = lo to hi - 1 do
      r.node <- v;
      r.pos <- xadj.(v);
      r.stop <- xadj.(v + 1);
      r.last <- -1;
      fill v r;
      if r.pos <> r.stop then Row.fail r "shorter than its degree";
      Bytes.unsafe_set filled v '\001'
    done
  in
  (match shard with
  | None -> fill_rows 0 size
  | Some run -> run ~lo:0 ~hi:size fill_rows);
  if Bytes.contains filled '\000' then
    invalid_arg
      (Printf.sprintf "Csr.of_rows: row %d was never filled" (Bytes.index filled '\000'));
  (* Symmetry in one sequential pass.  Visiting [v] in ascending order
     consumes each row [u] in ascending order too, so when the graph is
     symmetric [u]'s cursor points at [v] exactly when [u] appears in row
     [v].  Every entry is consumed once, so no final sweep is needed. *)
  let cursor = Array.copy xadj in
  for v = 0 to size - 1 do
    for i = xadj.(v) to xadj.(v + 1) - 1 do
      let u = adj.(i) in
      let c = cursor.(u) in
      if c >= xadj.(u + 1) || adj.(c) <> v then
        invalid_arg (Printf.sprintf "Csr.of_rows: edge %d-%d is one-sided" v u);
      cursor.(u) <- c + 1
    done
  done;
  { size; xadj; adj; weights = Array.copy weights; labels = None }

(* ------------------------------------------------------------------ *)
(* Conversion *)

let of_graph g =
  let size = Graph.n g in
  let xadj = Array.make (size + 1) 0 in
  for v = 0 to size - 1 do
    xadj.(v + 1) <- xadj.(v) + Graph.degree g v
  done;
  let adj = Array.make (max xadj.(size) 1) 0 in
  let pos = ref 0 in
  for v = 0 to size - 1 do
    Bitset.iter
      (fun u ->
        adj.(!pos) <- u;
        incr pos)
      (Graph.neighbors g v)
  done;
  let weights = Array.init size (Graph.weight g) in
  let labels = Array.init size (Graph.label g) in
  { size; xadj; adj; weights; labels = Some labels }

let to_graph c =
  let g = Graph.create c.size in
  for v = 0 to c.size - 1 do
    Graph.set_weight g v c.weights.(v)
  done;
  (match c.labels with
  | None -> ()
  | Some l ->
      for v = 0 to c.size - 1 do
        Graph.set_label g v l.(v)
      done);
  for v = 0 to c.size - 1 do
    for r = c.xadj.(v) to c.xadj.(v + 1) - 1 do
      let u = c.adj.(r) in
      if v < u then Graph.add_edge g v u
    done
  done;
  g

(* ------------------------------------------------------------------ *)
(* Accessors *)

let degree g v =
  check g v;
  g.xadj.(v + 1) - g.xadj.(v)

let max_degree g =
  let d = ref 0 in
  for v = 0 to g.size - 1 do
    d := max !d (g.xadj.(v + 1) - g.xadj.(v))
  done;
  !d

let edge_count g = g.xadj.(g.size) / 2

let has_edge g u v =
  check g u;
  check g v;
  let lo = ref g.xadj.(u) and hi = ref g.xadj.(u + 1) in
  let found = ref false in
  while !lo < !hi && not !found do
    let mid = (!lo + !hi) / 2 in
    let x = g.adj.(mid) in
    if x = v then found := true
    else if x < v then lo := mid + 1
    else hi := mid
  done;
  !found

let weight g v =
  check g v;
  g.weights.(v)

let total_weight g = Array.fold_left ( + ) 0 g.weights

let set_weight_of g s = Bitset.fold (fun v acc -> acc + weight g v) s 0

let label g v =
  check g v;
  match g.labels with None -> string_of_int v | Some l -> l.(v)

let iter_neighbors f g v =
  check g v;
  for r = g.xadj.(v) to g.xadj.(v + 1) - 1 do
    f g.adj.(r)
  done

let fold_neighbors f g v init =
  check g v;
  let acc = ref init in
  for r = g.xadj.(v) to g.xadj.(v + 1) - 1 do
    acc := f g.adj.(r) !acc
  done;
  !acc

let neighbors_array g v =
  check g v;
  Array.sub g.adj g.xadj.(v) (g.xadj.(v + 1) - g.xadj.(v))

let iter_edges f g =
  for v = 0 to g.size - 1 do
    for r = g.xadj.(v) to g.xadj.(v + 1) - 1 do
      let u = g.adj.(r) in
      if v < u then f v u
    done
  done

let iter_nodes f g =
  for v = 0 to g.size - 1 do
    f v
  done

let equal a b =
  a.size = b.size
  && Array.for_all2 ( = ) a.weights b.weights
  && Array.for_all2 ( = ) a.xadj b.xadj
  && (a.xadj.(a.size) = 0 || Array.for_all2 ( = ) a.adj b.adj)

let reweight g f =
  { g with weights = Array.init g.size f }

let resident_words g =
  Array.length g.xadj + Array.length g.adj + Array.length g.weights
  + (match g.labels with
    | None -> 0
    | Some l -> Array.fold_left (fun acc s -> acc + 2 + (String.length s / 8)) 0 l)

let pp ppf g =
  Format.fprintf ppf "csr(n=%d, m=%d, W=%d, maxdeg=%d)" g.size (edge_count g)
    (total_weight g) (max_degree g)
