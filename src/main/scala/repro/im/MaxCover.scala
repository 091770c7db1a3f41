package repro.im

/** Greedy max-k-cover over a collection of RR sets — the `NodeSelection`
  * procedure of IMM/PRIMM. Deterministic: ties broken toward the smallest
  * node id, so repeated calls over the same RR collection agree (which the
  * prefix-reuse in PRIMM relies on).
  */
object MaxCover {

  /** @param seeds        selected nodes, in pick order
    * @param coveredAfter `coveredAfter(j)` = number of RR sets covered by
    *                     the first `j+1` seeds (per-prefix coverage)
    */
  final case class CoverResult(seeds: Array[Int], coveredAfter: Array[Int]) {
    def covered(prefix: Int): Int =
      if (prefix <= 0) 0 else coveredAfter(math.min(prefix, seeds.length) - 1)
  }

  /** Select up to `k` seeds greedily.
    *
    * @param forbidden nodes that may appear in RR sets but must never be
    *                  selected (bundle-disj "fresh seeds" support)
    */
  def nodeSelection(rr: collection.IndexedSeq[Array[Int]], k: Int, n: Int,
                    forbidden: Set[Int] = Set.empty): CoverResult = {
    val total = rr.foldLeft(0L)(_ + _.length)
    require(total <= Int.MaxValue - 8,
      s"${rr.length} RR sets hold $total members, more than one Int-indexed array can hold")
    val counts = new Array[Int](n)
    // inverted index: node -> ids of RR sets containing it
    val idxOff = new Array[Int](n + 1)
    rr.foreach(_.foreach(u => counts(u) += 1))
    var i = 0
    while (i < n) { idxOff(i + 1) = idxOff(i) + counts(i); i += 1 }
    val idx = new Array[Int](idxOff(n))
    val cur = java.util.Arrays.copyOf(idxOff, n)
    var s = 0
    while (s < rr.length) {
      rr(s).foreach { u => idx(cur(u)) = s; cur(u) += 1 }
      s += 1
    }

    val gain = counts.clone()
    forbidden.foreach(u => if (u < n) gain(u) = -1)
    val coveredSet = new Array[Boolean](rr.length)
    val seeds = new scala.collection.mutable.ArrayBuffer[Int](k)
    val coveredAfter = new scala.collection.mutable.ArrayBuffer[Int](k)
    var coveredCount = 0

    var pick = 0
    while (pick < k && pick < n) {
      var best = -1; var bestGain = -1
      var u = 0
      while (u < n) {
        if (gain(u) > bestGain) { bestGain = gain(u); best = u }
        u += 1
      }
      if (best < 0 || bestGain < 0) {
        // nothing selectable (all forbidden) — stop early
        pick = k
      } else {
        seeds += best
        // cover best's RR sets and decrement other members' gains
        var e = idxOff(best)
        while (e < idxOff(best + 1)) {
          val sid = idx(e)
          if (!coveredSet(sid)) {
            coveredSet(sid) = true
            coveredCount += 1
            rr(sid).foreach { w => if (gain(w) > 0) gain(w) -= 1 }
          }
          e += 1
        }
        gain(best) = -1
        coveredAfter += coveredCount
        pick += 1
      }
    }
    CoverResult(seeds.toArray, coveredAfter.toArray)
  }

  /** Number of RR sets hit by `seeds` (for `F_R(S) = covered / |R|`). */
  def coverage(rr: collection.IndexedSeq[Array[Int]], seeds: Array[Int]): Int = {
    val s = seeds.toSet
    rr.count(_.exists(s.contains))
  }
}
