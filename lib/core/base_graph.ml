module Graph = Wgraph.Graph
module Row = Wgraph.Csr.Row

let copy_size p = Params.k p + (Params.positions p * Params.q p)

let a_node p ~offset ~m =
  if m < 0 || m >= Params.k p then invalid_arg "Base_graph.a_node: bad m";
  offset + m

let sigma_node p ~offset ~h ~r =
  if h < 0 || h >= Params.positions p then
    invalid_arg "Base_graph.sigma_node: bad position";
  if r < 0 || r >= Params.q p then invalid_arg "Base_graph.sigma_node: bad symbol";
  offset + Params.k p + (h * Params.q p) + r

let code_clique p ~offset ~h =
  Array.init (Params.q p) (fun r -> sigma_node p ~offset ~h ~r)

let code_nodes p ~offset ~m =
  let w = Params.codeword p m in
  Array.init (Params.positions p) (fun h -> sigma_node p ~offset ~h ~r:w.(h))

let all_code_nodes p ~offset =
  Array.init
    (Params.positions p * Params.q p)
    (fun i -> offset + Params.k p + i)

let a_nodes p ~offset = Array.init (Params.k p) (fun m -> a_node p ~offset ~m)

let node_kind p ~offset v =
  let rel = v - offset in
  if rel < 0 || rel >= copy_size p then
    invalid_arg "Base_graph.node_kind: node outside copy";
  if rel < Params.k p then `A rel
  else
    let c = rel - Params.k p in
    `Sigma (c / Params.q p, c mod Params.q p)

(* Closed-form CSR rows for [sides·t] copies of H, copy [c = sides·i + b]
   at offset [c·S].  Copies on the same side are peers: their code
   cliques C_h are joined by the complement of the perfect matching.
   With [sides = 2] and [inputs], player [i]'s A–A bit gadget links
   v^{(i,0)}_{m₁} and v^{(i,1)}_{m₂} iff bit m₁·k + m₂ is 0.  Every row
   is a few ascending runs written in order:
   - A node m: the other side's gadget neighbours when that copy comes
     first, the own A clique minus self, the code nodes minus the
     codeword, then the other side's gadget neighbours when it comes
     after;
   - σ(h,r): the lower peers' C_h minus r, the own A nodes whose codeword
     has w_m(h) ≠ r, the own C_h minus self, the higher peers' C_h
     minus r. *)
let csr ?shard ?inputs ~sides ~weights p =
  if sides < 1 || sides > 2 || (inputs <> None && sides <> 2) then
    invalid_arg "Base_graph.csr: sides must be 1 or 2, and inputs need 2";
  let t = p.Params.players and k = Params.k p in
  let positions = Params.positions p and q = Params.q p in
  let size = copy_size p in
  let copies = sides * t in
  (* sym.(h).(m) = w_m(h); cnt.(h).(r) = |{m : w_m(h) = r}|. *)
  let words = Array.init k (Params.codeword p) in
  let sym = Array.init positions (fun h -> Array.init k (fun m -> words.(m).(h))) in
  let cnt = Array.make_matrix positions q 0 in
  Array.iteri
    (fun h row -> Array.iter (fun r -> cnt.(h).(r) <- cnt.(h).(r) + 1) row)
    sym;
  (* Bit-gadget zero-bit counts per player, by row m₁ and by column m₂. *)
  let zero =
    match inputs with
    | Some x -> fun i m1 m2 -> not (Commcx.Inputs.bit x ~player:i ((m1 * k) + m2))
    | None -> fun _ _ _ -> false
  in
  let gadget = inputs <> None in
  let zeros_row = Array.make (t * k) 0 and zeros_col = Array.make (t * k) 0 in
  if gadget then
    for i = 0 to t - 1 do
      for m1 = 0 to k - 1 do
        for m2 = 0 to k - 1 do
          if zero i m1 m2 then begin
            zeros_row.((i * k) + m1) <- zeros_row.((i * k) + m1) + 1;
            zeros_col.((i * k) + m2) <- zeros_col.((i * k) + m2) + 1
          end
        done
      done
    done;
  let degree v =
    let c = v / size and rel = v mod size in
    if rel < k then
      let bits =
        if not gadget then 0
        else (if c mod 2 = 0 then zeros_row else zeros_col).((c / 2 * k) + rel)
      in
      bits + (k - 1) + (positions * (q - 1))
    else
      let h = (rel - k) / q and r = (rel - k) mod q in
      (t * (q - 1)) + k - cnt.(h).(r)
  in
  (* C_h of copy c minus symbol r. *)
  let clique_minus row c h r =
    let base = (c * size) + k + (h * q) in
    Row.push_range row base (base + r);
    Row.push_range row (base + r + 1) (base + q)
  in
  let fill v row =
    let c = v / size and rel = v mod size in
    let off = c * size in
    if rel < k then begin
      let m = rel and i = c / sides in
      if gadget && c mod 2 = 1 then
        for m1 = 0 to k - 1 do
          if zero i m1 m then Row.push row (off - size + m1)
        done;
      Row.push_range row off v;
      Row.push_range row (v + 1) (off + k);
      for h = 0 to positions - 1 do
        clique_minus row c h sym.(h).(m)
      done;
      if gadget && c mod 2 = 0 then
        for m2 = 0 to k - 1 do
          if zero i m m2 then Row.push row (off + size + m2)
        done
    end
    else begin
      let h = (rel - k) / q and r = (rel - k) mod q in
      let c' = ref (c mod sides) in
      while !c' < c do
        clique_minus row !c' h r;
        c' := !c' + sides
      done;
      let s = sym.(h) in
      for m = 0 to k - 1 do
        if s.(m) <> r then Row.push row (off + m)
      done;
      clique_minus row c h r;
      let c' = ref (c + sides) in
      while !c' < copies do
        clique_minus row !c' h r;
        c' := !c' + sides
      done
    end
  in
  Wgraph.Csr.of_rows ?shard ~weights (copies * size) ~degree ~fill

let build_into p g ~offset ~copy_name =
  (* The clique A. *)
  Wgraph.Build.make_clique_array g (a_nodes p ~offset);
  (* The code-gadget cliques C_h. *)
  for h = 0 to Params.positions p - 1 do
    Wgraph.Build.make_clique_array g (code_clique p ~offset ~h)
  done;
  (* v_m ↔ Code \ Code_m: connect v_m to every code node, then remove the
     codeword's own nodes. *)
  for m = 0 to Params.k p - 1 do
    let vm = a_node p ~offset ~m in
    Array.iter (fun u -> Graph.add_edge g vm u) (all_code_nodes p ~offset);
    Array.iter (fun u -> Graph.remove_edge g vm u) (code_nodes p ~offset ~m)
  done;
  (* Labels, 1-based like the paper. *)
  for m = 0 to Params.k p - 1 do
    Graph.set_label g (a_node p ~offset ~m)
      (Printf.sprintf "v%s_%d" copy_name (m + 1))
  done;
  for h = 0 to Params.positions p - 1 do
    for r = 0 to Params.q p - 1 do
      Graph.set_label g
        (sigma_node p ~offset ~h ~r)
        (Printf.sprintf "s%s_(%d,%d)" copy_name (h + 1) (r + 1))
    done
  done
