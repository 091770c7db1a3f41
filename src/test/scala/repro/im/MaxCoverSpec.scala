package repro.im

import org.scalatest.funsuite.AnyFunSuite

class MaxCoverSpec extends AnyFunSuite {

  test("picks the node covering the most RR sets first") {
    val rr = IndexedSeq(Array(0, 1), Array(1, 2), Array(1), Array(3))
    val res = MaxCover.nodeSelection(rr, k = 2, n = 4)
    assert(res.seeds.head == 1)
    assert(res.covered(1) == 3)
    assert(res.seeds(1) == 3) // node 3 covers the remaining set
    assert(res.covered(2) == 4)
  }

  test("deterministic smallest-id tie-break") {
    val rr = IndexedSeq(Array(5), Array(2), Array(7))
    val res = MaxCover.nodeSelection(rr, k = 3, n = 10)
    assert(res.seeds.toSeq == Seq(2, 5, 7))
  }

  test("per-prefix coverage is non-decreasing") {
    val rr = IndexedSeq(Array(0, 1, 2), Array(2, 3), Array(0), Array(4), Array(1, 4))
    val res = MaxCover.nodeSelection(rr, k = 5, n = 6)
    val cov = res.coveredAfter
    assert(cov.zip(cov.tail).forall { case (a, b) => b >= a })
    assert(cov.last == 5)
  }

  test("forbidden nodes are never selected") {
    val rr = IndexedSeq(Array(0, 1), Array(0), Array(0, 2))
    val res = MaxCover.nodeSelection(rr, k = 2, n = 3, forbidden = Set(0))
    assert(!res.seeds.contains(0))
  }

  test("coverage counts sets hit by the seed set") {
    val rr = IndexedSeq(Array(0, 1), Array(1, 2), Array(3), Array.empty[Int])
    assert(MaxCover.coverage(rr, Array(1)) == 2)
    assert(MaxCover.coverage(rr, Array(1, 3)) == 3)
    assert(MaxCover.coverage(rr, Array.empty[Int]) == 0)
  }

  test("empty RR collection still returns k seeds with zero coverage") {
    val res = MaxCover.nodeSelection(IndexedSeq.empty, k = 3, n = 5)
    assert(res.seeds.length == 3)
    assert(res.coveredAfter.forall(_ == 0))
  }

  test("empty RR sets in the collection are never covered") {
    val rr = IndexedSeq(Array.empty[Int], Array(1))
    val res = MaxCover.nodeSelection(rr, k = 2, n = 3)
    assert(res.covered(2) == 1)
  }

  test("an RR collection with more than 2^31 members is rejected, not overflowed") {
    // 65537 views of one 32768-node set: 2^31 + 32768 members in 128 KiB.
    val shared = Array.range(0, 32768)
    val rr = new IndexedSeq[Array[Int]] {
      def length: Int = 65537
      def apply(i: Int): Array[Int] = shared
    }
    val e = intercept[IllegalArgumentException](MaxCover.nodeSelection(rr, k = 1, n = 32768))
    assert(e.getMessage.contains("65537 RR sets hold 2147516416 members"), e.getMessage)
  }

  test("k greater than n is clamped") {
    val rr = IndexedSeq(Array(0), Array(1))
    val res = MaxCover.nodeSelection(rr, k = 10, n = 2)
    assert(res.seeds.length == 2)
  }

  test("greedy coverage is optimal on a small instance") {
    // brute force over all 2-subsets
    val rr = IndexedSeq(Array(0, 1), Array(1, 2), Array(2, 3), Array(3, 0), Array(1, 3))
    val res = MaxCover.nodeSelection(rr, k = 2, n = 4)
    val best = (0 until 4).combinations(2).map(c => MaxCover.coverage(rr, c.toArray)).max
    assert(res.covered(2) == best)
  }

  test("greedy achieves at least (1-1/e) of optimal coverage on random instances") {
    val rng = new java.util.SplittableRandom(17)
    (0 until 20).foreach { _ =>
      val n = 12
      val rr = IndexedSeq.fill(30)(Array.fill(1 + rng.nextInt(3))(rng.nextInt(n)).distinct)
      val k = 3
      val res = MaxCover.nodeSelection(rr, k, n)
      val best = (0 until n).combinations(k).map(c => MaxCover.coverage(rr, c.toArray)).max
      assert(res.covered(k) >= math.ceil((1 - 1.0 / math.E) * best) - 1e-9)
    }
  }
}
