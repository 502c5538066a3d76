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

(* The quantile at [p] of the [n] values in [sorted.(0 .. n - 1)].  Reads
   only the ranks [quantile_rank] names, so an array in which just those
   ranks hold their sorted values will do.  The two ranks' difference is
   taken in halves only when it overflows, so a quantile that is finite
   from the plain formula keeps its bits. *)
let quantile_sorted sorted n p =
  if n = 1 then sorted.(0)
  else begin
    let lo = quantile_rank n p in
    let frac = (p *. float_of_int (n - 1)) -. float_of_int lo in
    let a = sorted.(lo) and b = sorted.(lo + 1) in
    if Float.is_finite (b -. a) then a +. (frac *. (b -. a))
    else 2.0 *. ((a *. 0.5) +. (frac *. ((b *. 0.5) -. (a *. 0.5))))
  end

(* In-place ternary heap sort of [a.(0 .. n - 1)]: [Array.sort compare]'s
   algorithm step for step, on unboxed floats.  It allocates nothing,
   stays O(n log n) on every input (sorted, reversed, constant,
   duplicated), and on finite samples — where [<] and [compare] agree —
   leaves exactly the order [Array.sort compare] does, ties between -0.0
   and 0.0 included. *)
let sort_finite (a : float array) n =
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

(* Bucketed selection.  Puts at [a.(r)], for each rank [r] in [ranks]
   (ascending, inside [lo, lo + m)), the value a sort of
   [a.(lo .. lo + m - 1)] puts there; [mn] and [mx] are that
   range's extremes.  The values are finite and never both -0.0 and 0.0,
   so values that compare equal have equal bits.

   One counting pass by a monotone bucket index over [mn, mx] finds the
   buckets that hold a wanted rank.  A second gathers only their values,
   in bucket order, into a scratch array, where each such bucket is
   selected from again (a short one is insertion-sorted), and the wanted
   ranks are copied back.  [mn] and [mx] fall in different buckets, so
   every bucket is smaller than its range.  [budget] counts down the
   values the counting passes may visit; once it is spent, or when
   [mx - mn] does not scale to the buckets, [Exit] is raised before [a]
   is written, so the caller can fall back on the heap sort. *)
let rec select_buckets budget (a : float array) lo m mn mx ranks =
  if m <= 16 then
    for i = lo + 1 to lo + m - 1 do
      let v = a.(i) and j = ref (i - 1) in
      while !j >= lo && a.(!j) > v do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- v
    done
  else if mn < mx then begin
    let nb = min 4096 (m / 4) in
    let scale = float_of_int nb /. (mx -. mn) in
    budget := !budget - m;
    if !budget < 0 || scale = 0.0 || not (Float.is_finite scale) then raise Exit;
    let counts = Array.make nb 0 in
    for i = lo to lo + m - 1 do
      let b = int_of_float ((a.(i) -. mn) *. scale) in
      let b = if b >= nb then nb - 1 else b in
      counts.(b) <- counts.(b) + 1
    done;
    (* Each bucket that holds a wanted rank gets the next run of the
       scratch array, [runs.(i) .. runs.(i + 1) - 1] for the [i]th, and
       [counts] its run's offset; any other bucket gets -1.  [at.(k)] is
       where rank [ranks.(k)] lands in the scratch array. *)
    let nk = Array.length ranks in
    let at = Array.make nk 0 and runs = Array.make (nk + 1) 0 in
    let k = ref 0 and nruns = ref 0 and first = ref lo and size = ref 0 in
    for b = 0 to nb - 1 do
      let c = counts.(b) in
      if !k < nk && ranks.(!k) < !first + c then begin
        while !k < nk && ranks.(!k) < !first + c do
          at.(!k) <- !size + ranks.(!k) - !first;
          incr k
        done;
        runs.(!nruns) <- !size;
        incr nruns;
        counts.(b) <- !size;
        size := !size + c
      end
      else counts.(b) <- -1;
      first := !first + c
    done;
    runs.(!nruns) <- !size;
    let tmp = Array.create_float !size in
    for i = lo to lo + m - 1 do
      let x = a.(i) in
      let b = int_of_float ((x -. mn) *. scale) in
      let b = if b >= nb then nb - 1 else b in
      let w = counts.(b) in
      if w >= 0 then begin
        tmp.(w) <- x;
        counts.(b) <- w + 1
      end
    done;
    (* The wanted ranks of one run are consecutive in [at]. *)
    let k = ref 0 in
    for i = 0 to !nruns - 1 do
      let run_lo = runs.(i) and run_hi = runs.(i + 1) in
      let k0 = !k in
      while !k < nk && at.(!k) < run_hi do
        incr k
      done;
      let rmn = ref tmp.(run_lo) and rmx = ref tmp.(run_lo) in
      for j = run_lo + 1 to run_hi - 1 do
        let x = tmp.(j) in
        if x < !rmn then rmn := x;
        if x > !rmx then rmx := x
      done;
      select_buckets budget tmp run_lo (run_hi - run_lo) !rmn !rmx
        (Array.sub at k0 (!k - k0))
    done;
    Array.iteri (fun k r -> a.(r) <- tmp.(at.(k))) ranks
  end

(* Puts the sorted value at each of [ranks] (ascending, distinct) of the
   finite values [a.(0 .. n - 1)], whose extremes are [mn] and [mx] and
   which do not hold both -0.0 and 0.0.  The heap sort takes over when
   the bucketed selection spends four passes over the sample, which keeps
   the worst case O(n log n), and when [mx - mn] overflows or is too small
   to scale to the buckets. *)
let select a n ~mn ~mx ranks =
  if Array.length ranks > 0 then
    try select_buckets (ref (4 * n)) a 0 n mn mx ranks with Exit -> sort_finite a n

(* Finite values that compare equal have equal bits unless they are -0.0
   and 0.0, so a sample holding both is heap-sorted, which breaks that tie
   as [Array.sort compare] does. *)
let select_ranks a ranks =
  let n = Array.length a in
  if n > 0 then begin
    let mn = ref a.(0) and mx = ref a.(0) and zeros = ref 0 in
    for i = 0 to n - 1 do
      let x = a.(i) in
      if x < !mn then mn := x;
      if x > !mx then mx := x;
      if x = 0.0 then zeros := !zeros lor if Float.sign_bit x then 2 else 1
    done;
    if !zeros = 3 then sort_finite a n else select a n ~mn:!mn ~mx:!mx ranks
  end

(* The summary of the sample [xs], whose finite values go, in sample
   order, to the front of [finite] ([xs] itself, or an array as long),
   where they are then permuted and overwritten.  Loops rather than folds
   and sequences, so no float is boxed; the sums run in sample order.
   Each loop does all the work that needs only what earlier loops found:
   the first also finds the extremes, the second also bins. *)
let summarize_to ~bins ~probs (xs : float array) (finite : float array) =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.summarize: empty sample";
  if bins < 1 then invalid_arg "Stats.summarize: bins must be >= 1";
  let nf = ref 0 and sum = ref 0.0 in
  let mn = ref infinity and mx = ref neg_infinity and zeros = ref 0 in
  for i = 0 to n - 1 do
    let x = xs.(i) in
    if Float.is_finite x then begin
      finite.(!nf) <- x;
      incr nf;
      sum := !sum +. x;
      if x < !mn then mn := x;
      if x > !mx then mx := x;
      if x = 0.0 then zeros := !zeros lor if Float.sign_bit x then 2 else 1
    end
  done;
  let nf = !nf in
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
    (* Equal-width bins over [mn, mx], in halves only when [mx - mn]
       overflows: [h] is then 0.5, and otherwise 1.0, which leaves every
       bit as the plain formula does.  A zero's sign moves no value to
       another bin, so the scan's extremes bin as the sorted ones would. *)
    let mn = !mn and mx = !mx in
    let binned = mn < mx in
    let h = if Float.is_finite (mx -. mn) then 1.0 else 0.5 in
    let lo = mn *. h in
    let w = ((mx *. h) -. lo) /. float_of_int bins in
    let counts = Array.make (if binned then bins else 0) 0 in
    let acc = ref 0.0 in
    for i = 0 to nf - 1 do
      let x = finite.(i) in
      let d = x -. mean in
      acc := !acc +. (d *. d);
      if binned then begin
        let b = int_of_float (((x *. h) -. lo) /. w) in
        let b = if b >= bins then bins - 1 else b in
        counts.(b) <- counts.(b) + 1
      end
    done;
    let std =
      if nf < 2 then 0.0
      else begin
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
    (* Order statistics by selection, not a sort, except in a sample
       holding both -0.0 and 0.0: its tie shows in [min], [max] and a
       single-bin histogram. *)
    let signed_zeros = !zeros = 3 in
    if signed_zeros then sort_finite finite nf;
    let mn, mx = if signed_zeros then (finite.(0), finite.(nf - 1)) else (mn, mx) in
    let histogram =
      if not binned then [| (mn, mx, nf) |]
      else
        Array.mapi
          (fun b c ->
            ( (lo +. (float_of_int b *. w)) /. h,
              (if b = bins - 1 then mx else (lo +. (float_of_int (b + 1) *. w)) /. h),
              c ))
          counts
    in
    if binned && not signed_zeros then begin
      let ranks =
        List.concat_map (fun p -> let lo = quantile_rank nf p in [ lo; lo + 1 ]) probs
        |> List.sort_uniq compare |> Array.of_list
      in
      select finite nf ~mn ~mx ranks
    end;
    let quantiles = List.map (fun p -> (p, quantile_sorted finite nf p)) probs in
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

let summarize ?(bins = 20) ?(probs = default_probs) xs =
  summarize_to ~bins ~probs xs (Array.create_float (Array.length xs))

let summarize_into ?(bins = 20) ?(probs = default_probs) xs =
  summarize_to ~bins ~probs xs xs

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
