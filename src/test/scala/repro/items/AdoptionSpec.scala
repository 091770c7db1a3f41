package repro.items

import java.util.SplittableRandom

import org.scalatest.funsuite.AnyFunSuite

import repro.PropHelpers

class AdoptionSpec extends AnyFunSuite with PropHelpers {

  /** Example-1 utility table (masks i1=1, i2=2, i3=4): singletons and
    * {i2,i3} negative; U({i1,i2}) = U({i1,i3}) = 1; U(all) = 3.
    */
  val exampleUtil: Array[Double] = {
    val values = Array(0.0, 1.0, 1.0, 5.0, 1.0, 5.0, 3.0, 9.0)
    UtilityModel(TableValuation(values), Array(2.0, 2.0, 2.0), NoiseSpec.none(3)).deterministicUtility
  }

  test("Example 1 utility table has the paper's signs") {
    assert(exampleUtil(1) < 0 && exampleUtil(2) < 0 && exampleUtil(4) < 0)
    assert(exampleUtil(3) == 1.0 && exampleUtil(5) == 1.0)
    assert(exampleUtil(6) < 0)
    assert(exampleUtil(7) == 3.0)
  }

  test("seed adoption picks the utility-maximising subset of the allocation") {
    assert(Adoption.adoptSeed(exampleUtil, 7) == 7) // all three: U=3
    assert(Adoption.adoptSeed(exampleUtil, 3) == 3) // {i1,i2}: U=1
    assert(Adoption.adoptSeed(exampleUtil, 1) == 0) // {i1} alone: negative -> nothing
    assert(Adoption.adoptSeed(exampleUtil, 6) == 0) // {i2,i3}: negative -> nothing
  }

  test("adoption with a previous set must include it") {
    // prev {i1,i2}; desire all: best superset is all (U=3 > 1)
    assert(Adoption.adopt(exampleUtil, 7, 3) == 7)
  }

  test("adoption never decreases the previous set") {
    forSeeds(40) { s =>
      val rng = new SplittableRandom(s)
      val util = randomSupermodularUtil(3, rng)
      val desire = rng.nextInt(8)
      val prev = {
        // a valid previous adoption: adopt from a sub-desire
        val d0 = desire & rng.nextInt(8)
        Adoption.adopt(util, d0, 0)
      }
      val a = Adoption.adopt(util, desire | prev, prev)
      assert((prev & ~a) == 0)
    }
  }

  test("Lemma 3 invariant: any adoption result is a local maximum") {
    forSeeds(60) { s =>
      val rng = new SplittableRandom(s)
      val util = randomSupermodularUtil(4, rng)
      val desire = rng.nextInt(16)
      val a = Adoption.adopt(util, desire, 0)
      assert(Adoption.isLocalMaximum(util, a), s"seed=$s util=${util.toSeq} desire=$desire a=$a")
    }
  }

  test("adopted set always has non-negative utility") {
    forSeeds(60) { s =>
      val rng = new SplittableRandom(s)
      val util = randomSupermodularUtil(4, rng)
      val a = Adoption.adopt(util, rng.nextInt(16), 0)
      assert(util(a) >= -1e-9)
    }
  }

  test("tie-break favours larger cardinality (union of argmaxes, Lemma 2)") {
    // Additive utility where item 2 has utility exactly 0: both {i1} and
    // {i1,i2} are argmax -> adopt the union {i1,i2}.
    val m = UtilityModel(AdditiveValuation(Array(2.0, 1.0)), Array(1.0, 1.0), NoiseSpec.none(2))
    val util = m.deterministicUtility
    assert(util(1) == 1.0 && util(3) == 1.0)
    assert(Adoption.adopt(util, 3, 0) == 3)
  }

  test("empty-desire adoption stays empty") {
    assert(Adoption.adopt(exampleUtil, 0, 0) == 0)
  }

  test("invalid previous adoption outside desire is rejected") {
    intercept[IllegalArgumentException](Adoption.adopt(exampleUtil, 1, 2))
  }

  test("globalOptimum finds I* (all items in the example)") {
    assert(Adoption.globalOptimum(exampleUtil) == 7)
  }

  test("globalOptimum is empty when everything has negative utility") {
    val util = Array(0.0, -1.0, -1.0, -0.5)
    assert(Adoption.globalOptimum(util) == 0)
  }

  test("adoption is idempotent: adopting again from the same desire changes nothing") {
    forSeeds(40) { s =>
      val rng = new SplittableRandom(s)
      val util = randomSupermodularUtil(4, rng)
      val desire = rng.nextInt(16)
      val a1 = Adoption.adopt(util, desire, 0)
      val a2 = Adoption.adopt(util, desire, a1)
      assert(a1 == a2)
    }
  }

  test("monotone in desire: larger desire never yields lower utility") {
    forSeeds(40) { s =>
      val rng = new SplittableRandom(s)
      val util = randomSupermodularUtil(4, rng)
      val d1 = rng.nextInt(16)
      val d2 = d1 | rng.nextInt(16)
      val a1 = Adoption.adopt(util, d1, 0)
      val a2 = Adoption.adopt(util, d2, 0)
      assert(util(a2) >= util(a1) - 1e-9)
    }
  }

  test("Memo.adopt equals Adoption.adopt on random tables and call sequences (ScalaCheck)") {
    import org.scalacheck.{Gen, Prop, Test}
    import org.scalacheck.rng.Seed
    // Integer-valued entries make ties (the union branch) common; a pool of
    // (desire, prev ⊆ desire) pairs indexed with repetition makes hits
    // common, and up to 200 distinct pairs make the table grow.
    val world = for {
      k <- Gen.choose(1, 10)
      entries <- Gen.listOfN((1 << k) - 1,
        Gen.oneOf(Gen.choose(-3, 3).map(_.toDouble), Gen.choose(-3.0, 3.0)))
      pool <- Gen.choose(1, 200).flatMap(Gen.listOfN(_,
        for (d <- Gen.choose(0, (1 << k) - 1); p <- Gen.choose(0, (1 << k) - 1)) yield (d, d & p)))
      calls <- Gen.listOf(Gen.choose(0, pool.length - 1))
    } yield (0.0 +: entries.toVector, pool.toVector, calls)
    val prop = Prop.forAll(world) { case (table, pool, calls) =>
      val util = table.toArray
      val memo = new Adoption.Memo(util)
      (pool.indices ++ calls ++ calls).forall { i =>
        val (d, p) = pool(i)
        memo.adopt(d, p) == Adoption.adopt(util, d, p)
      }
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(300)
      .withInitialSeed(Seed(2019L)), prop)
    assert(res.passed, res.status.toString)
  }

  /** Random supermodular utility: supermodular valuation (built like
    * Config 10) minus random modular price plus modular noise.
    */
  def randomSupermodularUtil(k: Int, rng: SplittableRandom): Array[Double] = {
    val prices = Array.fill(k)(0.5 + rng.nextDouble() * 4.0)
    val v = LevelWiseValuation.build(k, prices, rng.nextLong())
    val noise = Array.fill(k)(rng.nextGaussian() * 1.5)
    UtilityModel(v, prices, NoiseSpec.none(k)).utilityTable(noise)
  }
}
