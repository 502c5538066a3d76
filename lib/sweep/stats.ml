type summary = {
  n : int;
  finite : int;
  mean : float;
  std : float;
  min : float;
  max : float;
  quantiles : (float * float) list;
  histogram : (float * float * int) array;
}

let default_probs = [ 0.05; 0.25; 0.5; 0.75; 0.95 ]

(* Hyndman–Fan type 7 (linear interpolation), the numpy/R default: the
   quantile at [p] of [n >= 2] values interpolates between ranks [lo] and
   [lo + 1]. *)
let quantile_rank n p =
  let h = p *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor h) in
  if lo >= n - 1 then n - 2 else if lo < 0 then 0 else lo

(* Reads only the ranks [quantile_rank] names, so an array in which just
   those ranks hold their sorted values will do. *)
let quantile_sorted sorted p =
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let lo = quantile_rank n p in
    let frac = (p *. float_of_int (n - 1)) -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(lo + 1) -. sorted.(lo)))
  end

(* In-place ternary heap sort: [Array.sort compare]'s algorithm step for
   step, on unboxed floats.  It allocates nothing, stays O(n log n) on
   every input (sorted, reversed, constant, duplicated), and on finite
   samples — where [<] and [compare] agree — leaves exactly the order
   [Array.sort compare] does, ties between -0.0 and 0.0 included. *)
let sort_finite (a : float array) =
  let n = Array.length a in
  (* The largest of the up-to-three children of [i] in the heap [a.(0..l-1)],
     or -1 when [i] is a leaf. *)
  let maxson l i =
    let i31 = i + i + i + 1 in
    if i31 + 2 < l then begin
      let x = if a.(i31) < a.(i31 + 1) then i31 + 1 else i31 in
      if a.(x) < a.(i31 + 2) then i31 + 2 else x
    end
    else if i31 + 1 < l && a.(i31) < a.(i31 + 1) then i31 + 1
    else if i31 < l then i31
    else -1
  in
  (* Heapify: sift each inner node's value down to its place. *)
  for node = ((n + 1) / 3) - 1 downto 0 do
    let e = a.(node) in
    let i = ref node and j = ref (maxson n node) in
    while !j >= 0 && a.(!j) > e do
      a.(!i) <- a.(!j);
      i := !j;
      j := maxson n !i
    done;
    a.(!i) <- e
  done;
  (* Move the root to the end, sink the hole to a leaf along the larger
     children, then let the displaced value climb back from there. *)
  for l = n - 1 downto 2 do
    let e = a.(l) in
    a.(l) <- a.(0);
    let i = ref 0 and j = ref (maxson l 0) in
    while !j >= 0 do
      a.(!i) <- a.(!j);
      i := !j;
      j := maxson l !i
    done;
    let climbing = ref true in
    while !climbing do
      let father = (!i - 1) / 3 in
      if a.(father) < e then begin
        a.(!i) <- a.(father);
        if father > 0 then i := father
        else begin
          a.(0) <- e;
          climbing := false
        end
      end
      else begin
        a.(!i) <- e;
        climbing := false
      end
    done
  done;
  if n > 1 then begin
    let e = a.(1) in
    a.(1) <- a.(0);
    a.(0) <- e
  end

(* Puts the value a sort would put at [a.(r)] there, for every rank [r]
   in [ranks.(rlo) .. ranks.(rhi - 1)] (ascending, inside [lo .. hi]).
   Quickselect: Hoare's partition around the median of three, recursing
   only into the parts that hold a wanted rank, and an insertion sort
   once a part is short.  Values that compare equal must have equal
   bits.  Raises [Exit] after [depth] levels, so a caller can bound the
   work at O(n log n). *)
let rec select seed (a : float array) ranks rlo rhi lo hi depth =
  if rlo < rhi then
    if hi - lo < 16 then
      for i = lo + 1 to hi do
        let v = a.(i) and j = ref (i - 1) in
        while !j >= lo && a.(!j) > v do
          a.(!j + 1) <- a.(!j);
          decr j
        done;
        a.(!j + 1) <- v
      done
    else begin
      if depth = 0 then raise Exit;
      let swap i j =
        let t = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- t
      in
      (* The median of three values at pseudo-random positions goes to
         [lo]: no order in the input (sorted, reversed, organ pipe) keeps
         picking a bad pivot. *)
      let pick k =
        seed := (!seed * 2862933555777941757) + 3037000493;
        swap k (lo + ((!seed lsr 17) mod (hi - lo + 1)))
      in
      let mid = lo + 1 and top = lo + 2 in
      pick lo;
      pick mid;
      pick top;
      if a.(mid) < a.(lo) then swap mid lo;
      if a.(top) < a.(lo) then swap top lo;
      if a.(top) < a.(mid) then swap top mid;
      swap lo mid;
      let pivot = a.(lo) in
      (* Afterwards [a.(lo .. j)] <= pivot <= [a.(j+1 .. hi)], lo <= j < hi. *)
      let i = ref (lo - 1) and j = ref (hi + 1) and go = ref true in
      while !go do
        decr j;
        while a.(!j) > pivot do
          decr j
        done;
        incr i;
        while a.(!i) < pivot do
          incr i
        done;
        if !i < !j then swap !i !j else go := false
      done;
      let split = ref rlo in
      while !split < rhi && ranks.(!split) <= !j do
        incr split
      done;
      select seed a ranks rlo !split lo !j (depth - 1);
      select seed a ranks !split rhi (!j + 1) hi (depth - 1)
    end

(* Places the values [quantile_sorted] reads for [probs] at their sorted
   ranks.  The heap sort takes over when the partitions run deeper than
   twice log2 n, so the worst case stays O(n log n). *)
let select_quantiles ~probs a =
  let n = Array.length a in
  if n > 1 then begin
    let ranks =
      List.concat_map (fun p -> let lo = quantile_rank n p in [ lo; lo + 1 ]) probs
      |> List.sort_uniq compare |> Array.of_list
    in
    let rec log2 k = if k <= 1 then 0 else 1 + log2 (k / 2) in
    try select (ref 1) a ranks 0 (Array.length ranks) 0 (n - 1) (2 * (log2 n + 1))
    with Exit -> sort_finite a
  end

let summarize ?(bins = 20) ?(probs = default_probs) xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.summarize: empty sample";
  if bins < 1 then invalid_arg "Stats.summarize: bins must be >= 1";
  (* Loops rather than folds and sequences, so no float is boxed; the
     sums run in sample order. *)
  let finite = Array.make n 0.0 and nf = ref 0 in
  for i = 0 to n - 1 do
    let x = xs.(i) in
    if Float.is_finite x then begin
      finite.(!nf) <- x;
      incr nf
    end
  done;
  let nf = !nf in
  let finite = if nf = n then finite else Array.sub finite 0 nf in
  if nf = 0 then
    {
      n;
      finite = 0;
      mean = nan;
      std = nan;
      min = nan;
      max = nan;
      quantiles = List.map (fun p -> (p, nan)) probs;
      histogram = [||];
    }
  else begin
    (* Plain sums, whose bits every finite summary keeps.  Only a result
       that overflowed on these finite samples is redone scaled: the mean
       as the sum of x/n, the deviation by the largest |half deviation|
       (halves, so x - mean itself cannot overflow). *)
    let fn = float_of_int nf in
    let sum = ref 0.0 in
    for i = 0 to nf - 1 do
      sum := !sum +. finite.(i)
    done;
    let mean = !sum /. fn in
    let mean =
      if Float.is_finite mean then mean
      else begin
        let acc = ref 0.0 in
        for i = 0 to nf - 1 do
          acc := !acc +. (finite.(i) /. fn)
        done;
        !acc
      end
    in
    let std =
      if nf < 2 then 0.0
      else begin
        let acc = ref 0.0 in
        for i = 0 to nf - 1 do
          let d = finite.(i) -. mean in
          acc := !acc +. (d *. d)
        done;
        let std = sqrt (!acc /. float_of_int (nf - 1)) in
        if Float.is_finite std then std
        else begin
          let half i = (finite.(i) *. 0.5) -. (mean *. 0.5) in
          let s = ref 0.0 in
          for i = 0 to nf - 1 do
            s := Float.max !s (Float.abs (half i))
          done;
          let acc = ref 0.0 in
          for i = 0 to nf - 1 do
            let r = half i /. !s in
            acc := !acc +. (r *. r)
          done;
          2.0 *. !s *. sqrt (!acc /. float_of_int (nf - 1))
        end
      end
    in
    (* Order statistics by selection, not a sort.  Finite values that
       compare equal have equal bits unless they are -0.0 and 0.0, so
       only a sample holding both needs the sort, to break that tie as
       [Array.sort compare] does: it shows in [min], [max] and a
       single-bin histogram.  One scan finds the extremes and the zeros;
       a sample whose extremes are equal already holds its value at
       every rank. *)
    let mn = ref finite.(0) and mx = ref finite.(0) and zeros = ref 0 in
    for i = 0 to nf - 1 do
      let x = finite.(i) in
      if x < !mn then mn := x;
      if x > !mx then mx := x;
      if x = 0.0 then zeros := !zeros lor if Float.sign_bit x then 2 else 1
    done;
    let mn, mx =
      if !zeros = 3 then begin
        sort_finite finite;
        (finite.(0), finite.(nf - 1))
      end
      else begin
        if !mn < !mx then select_quantiles ~probs finite;
        (!mn, !mx)
      end
    in
    let quantiles = List.map (fun p -> (p, quantile_sorted finite p)) probs in
    let histogram =
      if mn = mx then [| (mn, mx, nf) |]
      else begin
        let counts = Array.make bins 0 in
        let w = (mx -. mn) /. float_of_int bins in
        for i = 0 to nf - 1 do
          let b = int_of_float ((finite.(i) -. mn) /. w) in
          let b = if b >= bins then bins - 1 else b in
          counts.(b) <- counts.(b) + 1
        done;
        Array.mapi
          (fun b c ->
            ( mn +. (float_of_int b *. w),
              (if b = bins - 1 then mx else mn +. (float_of_int (b + 1) *. w)),
              c ))
          counts
      end
    in
    {
      n;
      finite = nf;
      mean;
      std;
      min = mn;
      max = mx;
      quantiles;
      histogram;
    }
  end

let yield ~pass xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.yield: empty sample";
  let ok =
    Array.fold_left
      (fun acc x -> if Float.is_finite x && pass x then acc + 1 else acc)
      0 xs
  in
  float_of_int ok /. float_of_int n

let to_json s =
  let open Obs.Json in
  Obj
    [
      ("n", Num (float_of_int s.n));
      ("finite", Num (float_of_int s.finite));
      ("mean", Num s.mean);
      ("std", Num s.std);
      ("min", Num s.min);
      ("max", Num s.max);
      ( "quantiles",
        Obj
          (List.map
             (fun (p, v) -> (Printf.sprintf "p%02.0f" (100.0 *. p), Num v))
             s.quantiles) );
      ( "histogram",
        List
          (Array.to_list
             (Array.map
                (fun (lo, hi, c) ->
                  Obj
                    [
                      ("lo", Num lo);
                      ("hi", Num hi);
                      ("count", Num (float_of_int c));
                    ])
                s.histogram)) );
    ]
