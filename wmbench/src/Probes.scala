package wmbench

import java.util.SplittableRandom

import scala.collection.immutable.ListMap

import repro.epic.{EpicSimulator, Welfare}
import repro.im.{ICRRSampler, MaxCover, PRIMM, RRSets}
import repro.items.{Adoption, UtilityModel}

import Workloads.timed

/** A metric value with its unit. */
final case class Metric(value: Double, unit: String)

/** Layer probes of the traced run. Each probe calls one public function of
  * a layer on the workload's own inputs, timed from outside.
  */
object Probes {

  /** Worlds replayed single-threaded on the driver per epic probe. */
  val ReplayWorlds = 8

  final case class Result(metrics: ListMap[String, Metric], info: ListMap[String, Any], problems: Seq[String])

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    val n = s.length
    if (n == 0) Double.NaN else if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** `im`: PRIMM as greedyWM calls it, then one `RRSets.generate` of the
    * same number of RR sets and one `nodeSelection` over them. Both replay
    * PRIMM's own sample ids, so the selection must equal PRIMM's seeds.
    */
  def im(ctx: Ctx, budgets: Array[Int]): Result = {
    val tr = ctx.tracer
    val distinctDesc = budgets.distinct.sorted(Ordering[Int].reverse).toSeq
    val (pr, runS) = timed(tr.root("probe.im", "im.PRIMM.run")(
      PRIMM.run(ctx.spark, ctx.g, distinctDesc, seed = ctx.seeds.algo)))
    val (rr, genS) = timed(tr.root("probe.im", "im.RRSets.generate")(
      RRSets.generate(ctx.spark, new ICRRSampler(ctx.g), pr.rrCount.toLong, ctx.seeds.algo, offset = 0L)))
    val members = rr.iterator.map(_.length.toLong).sum
    val rrSeq = scala.collection.immutable.ArraySeq.unsafeWrapArray(rr)
    val (sel, selS) = timed(tr.root("probe.im", "im.MaxCover.nodeSelection")(
      MaxCover.nodeSelection(rrSeq, distinctDesc.head, ctx.g.n)))
    val problems =
      if (sel.seeds.sameElements(pr.seeds)) Nil
      else Seq("im probe: nodeSelection over PRIMM's RR sets does not reproduce PRIMM's seeds")
    Result(
      ListMap(
        "im.PRIMM.run_s" -> Metric(runS, "s"),
        "im.PRIMM.rr_sets" -> Metric(pr.rrCount.toDouble, "count"),
        "im.PRIMM.other_s" -> Metric(runS - genS - selS, "s"),
        "im.RRSets.generate_s" -> Metric(genS, "s"),
        "im.RRSets.sets_per_s" -> Metric(rr.length / genS, "1/s"),
        "im.RRSets.mean_size" -> Metric(members.toDouble / math.max(1, rr.length), "count"),
        "im.MaxCover.select_s" -> Metric(selS, "s"),
        "im.MaxCover.index_entries" -> Metric(members.toDouble, "count"),
      ),
      ListMap("im.budgets" -> distinctDesc, "im.b_max" -> distinctDesc.head),
      problems,
    )
  }

  /** `epic`: one `Welfare.estimate` per labelled allocation, then the first
    * worlds replayed single-threaded through `EpicSimulator.diffuse` with
    * the estimate's per-run seeding, to time one world and count its work.
    */
  def epic(ctx: Ctx, cells: Seq[(String, UtilityModel, Map[Int, Int])]): Result = {
    val tr = ctx.tracer
    var metrics = ListMap.empty[String, Metric]
    var adopters, adoptions, worlds, matched = 0L
    var estimateS = 0.0
    for ((label, model, alloc) <- cells) {
      val (est, s) = timed(tr.root(s"probe.epic.$label", "epic.Welfare.estimate")(
        Welfare.estimate(ctx.spark, ctx.g, alloc, model, Workloads.McRuns, seed = ctx.seeds.welfare)))
      estimateS += s
      metrics += s"epic.Welfare.estimate_s.$label" -> Metric(s, "s")
      val perWorldMs = tr.root(s"probe.epic.$label", "epic.EpicSimulator.diffuse") {
        (0 until ReplayWorlds).map { r =>
          val rng = new SplittableRandom(RRSets.mix(ctx.seeds.welfare, r.toLong))
          val util = model.sampleUtilityTable(rng)
          val (adoption, s) = timed(EpicSimulator.diffuse(ctx.g, alloc, util, rng))
          adopters += adoption.count(_ != 0)
          adoptions += EpicSimulator.adoptionCount(adoption)
          worlds += 1
          if (EpicSimulator.welfare(util, adoption) == est.perRunWelfare(r)) matched += 1
          s * 1e3
        }
      }
      metrics += s"epic.EpicSimulator.diffuse_ms.$label" -> Metric(median(perWorldMs), "ms")
    }
    metrics += "epic.Welfare.runs_per_s" -> Metric(cells.length * Workloads.McRuns / estimateS, "1/s")
    metrics += "epic.adopters_per_run" -> Metric(adopters.toDouble / worlds, "count")
    metrics += "epic.adoptions_per_run" -> Metric(adoptions.toDouble / worlds, "count")
    // A replayed world matches its estimate run only while Welfare seeds
    // runs as RRSets.mix does; a mismatch voids the replay, not the op.
    Result(metrics, ListMap("epic.replayed_worlds" -> worlds, "epic.replays_matching_estimate" -> matched), Nil)
  }

  /** Per-call time of `f`: grow the batch to at least 20 ms, then take the
    * median of five batches.
    */
  private def perCallS(f: () => Int): (Double, Int) = {
    var sink = 0
    var n = 1
    var t = 0.0
    while (t < 0.02) {
      n *= 2
      t = timed { var i = 0; while (i < n) { sink ^= f(); i += 1 } }._2
    }
    val batches = (1 to 5).map(_ => timed { var i = 0; while (i < n) { sink ^= f(); i += 1 } }._2 / n)
    (median(batches), sink)
  }

  /** `items`: one noise world's utility table, and the adoption rule on the
    * full desire set (all 2^k subsets), at k = 2 (Config 1) and k = 10
    * (Config 7).
    */
  def items(ctx: Ctx): Result = {
    var metrics = ListMap.empty[String, Metric]
    var sink = 0
    ctx.tracer.root("probe.items", "items") {
      for ((k, model) <- Seq(2 -> Workloads.c1.model, 10 -> Workloads.c7.model)) {
        val rng = new SplittableRandom(ctx.seeds.welfare)
        val (tableS, s1) = perCallS(() => model.sampleUtilityTable(rng).length)
        val util = model.sampleUtilityTable(rng)
        val full = (1 << k) - 1
        val (adoptS, s2) = perCallS(() => Adoption.adopt(util, full, 0))
        sink ^= s1 ^ s2
        metrics += s"items.UtilityModel.table_us.k$k" -> Metric(tableS * 1e6, "us")
        metrics += s"items.Adoption.adopt_ns.k$k" -> Metric(adoptS * 1e9, "ns")
      }
    }
    Result(metrics, ListMap("items.sink" -> sink), Nil)
  }
}
