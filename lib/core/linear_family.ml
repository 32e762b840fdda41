module Graph = Wgraph.Graph
module Inputs = Commcx.Inputs
module Bitset = Stdx.Bitset

let copy_offset p i = i * Base_graph.copy_size p

let n_nodes p = p.Params.players * Base_graph.copy_size p

let partition_of p = Array.init (n_nodes p) (fun v -> v / Base_graph.copy_size p)

(* Inter-copy code connections: for i < j and every position h, all edges
   between C^i_h and C^j_h except the natural perfect matching (Figure 2). *)
let connect_copies p g =
  let t = p.Params.players in
  for i = 0 to t - 1 do
    for j = i + 1 to t - 1 do
      for h = 0 to Params.positions p - 1 do
        Wgraph.Build.connect_complement_of_matching g
          (Base_graph.code_clique p ~offset:(copy_offset p i) ~h)
          (Base_graph.code_clique p ~offset:(copy_offset p j) ~h)
      done
    done
  done

let fixed p =
  let g = Graph.create (n_nodes p) in
  for i = 0 to p.Params.players - 1 do
    Base_graph.build_into p g ~offset:(copy_offset p i)
      ~copy_name:(Printf.sprintf "^%d" (i + 1))
  done;
  connect_copies p g;
  (g, partition_of p)

(* CSR construction path: same node layout, same edge set, rows written
   in closed form by [Base_graph.csr] without the n²-bit adjacency
   matrix, so Theorem-1 sweeps reach n in the 10⁵–10⁶ range. *)

let fixed_csr ?shard p =
  let weights = Array.make (n_nodes p) 1 in
  (Base_graph.csr ?shard ~sides:1 ~weights p, partition_of p)

let instance_csr ?shard p x =
  if Inputs.t_players x <> p.Params.players then
    invalid_arg "Linear_family.instance_csr: wrong number of players";
  if x.Inputs.k <> Params.k p then
    invalid_arg "Linear_family.instance_csr: wrong string length";
  let weights = Array.make (n_nodes p) 1 in
  for i = 0 to p.Params.players - 1 do
    for m = 0 to Params.k p - 1 do
      if Inputs.bit x ~player:i m then
        weights.(Base_graph.a_node p ~offset:(copy_offset p i) ~m) <- Params.ell p
    done
  done;
  (Base_graph.csr ?shard ~sides:1 ~weights p, partition_of p)

let instance p x =
  if Inputs.t_players x <> p.Params.players then
    invalid_arg "Linear_family.instance: wrong number of players";
  if x.Inputs.k <> Params.k p then
    invalid_arg "Linear_family.instance: wrong string length";
  let g, partition = fixed p in
  for i = 0 to p.Params.players - 1 do
    for m = 0 to Params.k p - 1 do
      if Inputs.bit x ~player:i m then
        Graph.set_weight g
          (Base_graph.a_node p ~offset:(copy_offset p i) ~m)
          (Params.ell p)
    done
  done;
  { Family.graph = g; partition; params = p }

let property1_set p ~m =
  let s = Bitset.create (n_nodes p) in
  for i = 0 to p.Params.players - 1 do
    let offset = copy_offset p i in
    Bitset.add s (Base_graph.a_node p ~offset ~m);
    Array.iter (fun v -> Bitset.add s v) (Base_graph.code_nodes p ~offset ~m)
  done;
  s

let expected_cut_size p =
  let t = p.Params.players in
  let q = Params.q p in
  t * (t - 1) / 2 * Params.positions p * q * (q - 1)

let high_weight p =
  p.Params.players * ((2 * Params.ell p) + Params.alpha p)

let low_weight p =
  ((p.Params.players + 1) * Params.ell p)
  + (Params.alpha p * p.Params.players * p.Params.players)

let formal_gap_valid p = low_weight p < high_weight p

let predicate p =
  Predicate.make
    ~name:(Printf.sprintf "linear gap (t=%d)" p.Params.players)
    ~high:(high_weight p) ~low:(low_weight p)

let spec p =
  {
    Family.name = "linear (Section 4)";
    string_length = Params.k p;
    players = p.Params.players;
    build = instance p;
    predicate = predicate p;
    func = Commcx.Functions.promise_pairwise_disjointness;
  }
