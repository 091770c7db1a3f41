package repro.items

/** The EPIC node-level adoption rule (Fig. 2, step 3, and §4.1).
  *
  * Given the utility table of the current possible world, a desire set `R`
  * and the previously adopted set `A ⊆ R`, the node adopts
  * `T* = argmax { U(T) | A ⊆ T ⊆ R, U(T) >= 0 }`, breaking ties in favour
  * of larger cardinality. By Lemma 2 the union of tied local maxima is
  * itself a maximum, so the tie-break is implemented by unioning all
  * argmax sets — which yields the unique maximal optimum.
  */
object Adoption {

  private val Tol = 1e-9

  /** Adopt from desire set `desire` given previous adoption `prev`.
    *
    * `prev` is assumed to satisfy the model invariant `U(prev) >= 0` (it
    * was itself adopted earlier; the empty set has `U = 0`). Returns the
    * new adoption mask (always a superset of `prev`).
    */
  def adopt(util: Array[Double], desire: Int, prev: Int): Int = {
    require((prev & ~desire) == 0, "previous adoption must be within the desire set")
    var bestU = util(prev)
    var bestMask = prev
    // Enumerate T = prev | sub for every submask `sub` of desire \ prev.
    val free = desire & ~prev
    var sub = free
    while (sub != 0) {
      val t = prev | sub
      val u = util(t)
      if (u > bestU + Tol) { bestU = u; bestMask = t }
      else if (u >= bestU - Tol) bestMask |= t // tie: take the union (Lemma 2)
      sub = (sub - 1) & free
    }
    bestMask
  }

  /** Seed-time adoption (t = 1): the node desires exactly its allocated
    * items and has no previous adoption.
    */
  def adoptSeed(util: Array[Double], allocated: Int): Int = adopt(util, allocated, 0)

  /** [[adopt]] memoized on `(desire, prev)` for one fixed utility table,
    * i.e. one possible world.
    *
    * A world asks the rule once for every node whose desire grows, but for
    * few distinct pairs (greedyWM's nested prefixes make nodes desire the
    * same itemsets), and one call enumerates up to `2^|desire \ prev|`
    * submasks. The table is
    * open-addressing over primitive arrays, keyed on
    * `(desire << 32) | prev`; since `k <= UtilityModel.MaxItems`, no key
    * is negative and `-1` marks an empty slot. A miss calls [[adopt]], so
    * results are identical to it by construction.
    */
  final class Memo(util: Array[Double]) {
    private var keys = Array.fill(64)(-1L)
    private var vals = new Array[Int](64)
    private var size = 0

    def adopt(desire: Int, prev: Int): Int = {
      val key = (desire.toLong << 32) | (prev & 0xFFFFFFFFL)
      val i = find(key)
      if (keys(i) == key) vals(i)
      else {
        val a = Adoption.adopt(util, desire, prev)
        keys(i) = key; vals(i) = a; size += 1
        if (2 * size > keys.length) grow()
        a
      }
    }

    /** The slot holding `key`, or the empty slot where it belongs. */
    private def find(key: Long): Int = {
      val mask = keys.length - 1
      val h = key * 0x9E3779B97F4A7C15L
      var i = (h ^ (h >>> 32)).toInt & mask
      while (keys(i) != -1L && keys(i) != key) i = (i + 1) & mask
      i
    }

    private def grow(): Unit = {
      val oldKeys = keys; val oldVals = vals
      keys = Array.fill(oldKeys.length * 2)(-1L)
      vals = new Array[Int](oldKeys.length * 2)
      var j = 0
      while (j < oldKeys.length) {
        if (oldKeys(j) != -1L) { val i = find(oldKeys(j)); keys(i) = oldKeys(j); vals(i) = oldVals(j) }
        j += 1
      }
    }
  }

  /** True iff `mask` is a local maximum of `util` (its utility is the max
    * over all its subsets) — the invariant of Lemma 3, used in tests.
    */
  def isLocalMaximum(util: Array[Double], mask: Int): Boolean = {
    val u = util(mask)
    var sub = mask
    var ok = true
    while (sub != 0 && ok) {
      sub = (sub - 1) & mask
      if (util(sub) > u + Tol) ok = false
    }
    ok
  }

  /** The globally optimal itemset `I*` for a noise world: the utility-
    * maximising subset of the full universe, ties broken toward larger
    * cardinality (§5.2). Items outside `I*` can never be adopted.
    */
  def globalOptimum(util: Array[Double]): Int =
    adopt(util, util.length - 1, 0)
}
