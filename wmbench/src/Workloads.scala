package wmbench

import org.apache.spark.sql.SparkSession

import repro.core.{Allocation, Baselines, Configs, GreedyWM}
import repro.epic.Welfare
import repro.exp.Experiments
import repro.graph.{GraphGen, SocialGraph}
import repro.items.UtilityModel

/** The workload seed feeds every seed the program takes. Seed 0 gives the
  * repository's own defaults (graph 103/104, algorithm 7, welfare 42).
  */
final case class Seeds(workload: Long) {
  val algo: Long = 7 + workload
  val welfare: Long = 42 + workload
}

final case class Ctx(spark: SparkSession, g: SocialGraph, seeds: Seeds, tracer: Tracer)

/** Welfare of one estimate with its Monte-Carlo standard error. */
final case class WelfareStat(mean: Double, se: Double, runs: Int)

object WelfareStat {
  def of(e: Welfare.Estimate): WelfareStat = {
    val m = e.welfare
    val v = e.perRunWelfare.map(w => (w - m) * (w - m)).sum / math.max(1, e.runs - 1)
    WelfareStat(m, math.sqrt(v / e.runs), e.runs)
  }
}

/** What one op did. `output` must repeat bit for bit on every op of a run;
  * `problems` lists the output checks that failed.
  */
final case class OpOut(
    cells: Int,
    allocS: Option[Double],
    welfareS: Option[Double],
    output: Vector[Seq[Long]],
    welfare: Seq[(String, WelfareStat)],
    problems: Seq[String],
)

/** Inputs of the traced run's layer probes: a budget vector for the `im`
  * probes and labelled allocations (c1, c7, c10) for the `epic` probes.
  */
final case class ProbeInputs(imBudgets: Array[Int], epic: Seq[(String, UtilityModel, Allocation.Alloc)])

/** One workload, built on a finished graph. The constructor does the
  * workload's fixed set-up work; `op` is the unit the closed loop repeats.
  */
abstract class Workload(val ctx: Ctx) {
  def op(): OpOut
  /** Extra set-up check after the warm-up ops; returns failed checks. */
  def afterWarmup(): Seq[String] = Nil
  /** Wall times (s) of the greedyWM allocations made in set-up, if any. */
  def setupAllocS: Seq[Double] = Nil
  def probeInputs: ProbeInputs

  protected def spark: SparkSession = ctx.spark
  protected def g: SocialGraph = ctx.g
  protected def span[A](name: String)(body: => A): A = ctx.tracer.span(name)(body)
}

object Workloads {

  /** Monte-Carlo runs per welfare estimate, as in the paper's harness. */
  val McRuns = 40

  final case class Def(name: String, graph: Long => SocialGraph, make: Ctx => Workload)

  val all: Seq[Def] = Seq(
    Def("alloc-twitter", s => GraphGen.twitterLite(104 + s), new AllocTwitter(_)),
    Def("welfare-twitter", s => GraphGen.twitterLite(104 + s), new WelfareTwitter(_)),
    Def("cells-douban", s => GraphGen.doubanMovieLite(103 + s), new CellsDouban(_)),
  )

  def byName(name: String): Option[Def] = all.find(_.name == name)

  def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e9)
  }

  def prefixAlloc(order: Array[Int], budgets: Array[Int]): Allocation.Alloc =
    Allocation.fromItemSeeds(budgets.map(b => order.take(b)).toSeq)

  /** Budget and prefix checks of a greedyWM result: item `i` must get
    * exactly the top-`b_i` prefix of the ordered seeds.
    */
  def checkGreedy(label: String, r: GreedyWM.Result, budgets: Array[Int]): Seq[String] = {
    val budget =
      if (Allocation.respectsBudgets(r.alloc, budgets)) Nil else Seq(s"$label: allocation exceeds its budgets")
    val prefix = budgets.indices.collect {
      case i if r.orderedSeeds.length < budgets(i) ||
          Allocation.seedsOfItem(r.alloc, i) != r.orderedSeeds.take(budgets(i)).toSet =>
        s"$label: item $i seeds are not the top-${budgets(i)} prefix"
    }
    budget ++ prefix
  }

  def bits(e: Welfare.Estimate): Seq[Long] =
    e.perRunWelfare.toSeq.map(java.lang.Double.doubleToRawLongBits) ++ e.perRunAdoptions.toSeq

  val c1 = Configs.config1
  val c7 = Configs.config7(10)
  val c10 = Configs.config10(10)
  val uniform2: Array[Int] = Configs.uniformTwoItem(50)
  val moderate: Array[Int] = Configs.skewDistributions(1)._2
  val tenByHundred: Array[Int] = Array.fill(10)(100)
}

import Workloads._

/** greedyWM on the three Fig 8(c) budget vectors (Config 7, 10 items,
  * total 500) on the Twitter stand-in; no welfare estimate.
  */
final class AllocTwitter(ctx: Ctx) extends Workload(ctx) {
  private var largeSkewOrder = Array.empty[Int]

  def op(): OpOut = {
    val runs = Configs.skewDistributions.map { case (name, b) =>
      val (r, s) = timed(span("core.GreedyWM.allocate")(GreedyWM.allocate(spark, g, b, seed = ctx.seeds.algo)))
      (name, b, r, s)
    }
    largeSkewOrder = runs.last._3.orderedSeeds
    OpOut(
      cells = runs.length,
      allocS = Some(runs.map(_._4).sum),
      welfareS = None,
      output = runs.map(_._3.orderedSeeds.toSeq.map(_.toLong)).toVector,
      welfare = Nil,
      problems = runs.flatMap { case (name, b, r, _) => checkGreedy(name, r, b) },
    )
  }

  def probeInputs: ProbeInputs = ProbeInputs(
    Configs.skewDistributions.last._2,
    Seq(
      ("c1", c1.model, prefixAlloc(largeSkewOrder, uniform2)),
      ("c7", c7.model, prefixAlloc(largeSkewOrder, moderate)),
      ("c10", c10.model, prefixAlloc(largeSkewOrder, tenByHundred)),
    ),
  )
}

/** Welfare estimates of three fixed greedyWM allocations on the Twitter
  * stand-in: Config 1 at 50/50, Config 7 at moderate skew, Config 10 at
  * 10x100. The allocations are set-up work.
  */
final class WelfareTwitter(ctx: Ctx) extends Workload(ctx) {
  private val cells: Seq[(String, UtilityModel, Array[Int])] =
    Seq(("c1", c1.model, uniform2), ("c7", c7.model, moderate), ("c10", c10.model, tenByHundred))

  private val allocated = cells.map { case (label, model, b) =>
    val (r, s) = timed(span("core.GreedyWM.allocate")(GreedyWM.allocate(spark, g, b, seed = ctx.seeds.algo)))
    (label, model, b, r, s)
  }

  override val setupAllocS: Seq[Double] = allocated.map(_._5)

  override def afterWarmup(): Seq[String] =
    allocated.flatMap { case (label, _, b, r, _) => checkGreedy(label, r, b) }

  def op(): OpOut = {
    val ests = allocated.map { case (label, model, _, r, _) =>
      val (e, s) = timed(span("epic.Welfare.estimate")(
        Welfare.estimate(spark, g, r.alloc, model, McRuns, seed = ctx.seeds.welfare)))
      (label, e, s)
    }
    OpOut(
      cells = ests.length,
      allocS = None,
      welfareS = Some(ests.map(_._3).sum),
      output = ests.map(e => bits(e._2)).toVector,
      welfare = ests.map { case (label, e, _) => label -> WelfareStat.of(e) },
      problems = ests.collect { case (label, e, _) if e.runs != McRuns || e.welfare.isNaN =>
        s"$label: estimate has ${e.runs} runs, welfare ${e.welfare}"
      },
    )
  }

  /** The `im` probes take the Fig 8(c) large-skew vector (b̄ = 410), the
    * largest PRIMM call the paper's runtime figures make on Twitter.
    */
  def probeInputs: ProbeInputs = ProbeInputs(
    Configs.skewDistributions.last._2,
    allocated.map { case (label, model, _, r, _) => (label, model, r.alloc) })
}

/** A figure-cell sweep on the Douban-Movie stand-in: {greedyWM, item-disj,
  * bundle-disj} x {Config 1 at 50/50, Config 7 with `skewedSplit(10, 500)`},
  * each an allocation plus a 40-run welfare estimate, as `Experiments.run`
  * does them.
  */
final class CellsDouban(ctx: Ctx) extends Workload(ctx) {
  private val configs = Seq(("c1", c1, uniform2), ("c7", c7, Configs.skewedSplit(10, 500)))
  private val welfareSeed = ctx.seeds.algo * 31 + 1 // Experiments.run's estimate seed
  private var greedyOrders = Map.empty[String, Array[Int]]
  private var allocs = Map.empty[String, Allocation.Alloc]
  private var ests = Map.empty[String, Welfare.Estimate]

  def op(): OpOut = {
    val cells = for (algo <- Experiments.multiItemAlgos; (cl, cfg, b) <- configs) yield {
      val label = s"$algo/$cl"
      val ((alloc, problems), allocS) = timed(algo match {
        case Experiments.AlgoGreedyWM =>
          val r = span("core.GreedyWM.allocate")(GreedyWM.allocate(spark, g, b, seed = ctx.seeds.algo))
          greedyOrders += cl -> r.orderedSeeds
          (r.alloc, checkGreedy(label, r, b))
        case Experiments.AlgoItemDisj =>
          (span("core.Baselines.itemDisj")(Baselines.itemDisj(spark, g, b, seed = ctx.seeds.algo)), Nil)
        case Experiments.AlgoBundleDisj =>
          (span("core.Baselines.bundleDisj")(Baselines.bundleDisj(spark, g, b, cfg.detUtil, seed = ctx.seeds.algo)), Nil)
      })
      val budgetProblem =
        if (Allocation.respectsBudgets(alloc, b)) Nil else Seq(s"$label: allocation exceeds its budgets")
      val (e, welfareS) = timed(span("epic.Welfare.estimate")(
        Welfare.estimate(spark, g, alloc, cfg.model, McRuns, seed = welfareSeed)))
      allocs += label -> alloc
      ests += label -> e
      (label, alloc, e, allocS, welfareS, problems ++ budgetProblem)
    }
    // The paper's Fig 3/5 shape on these cells.
    val greedy7 = ests(s"${Experiments.AlgoGreedyWM}/c7").welfare
    val item7 = ests(s"${Experiments.AlgoItemDisj}/c7").welfare
    val shape =
      (if (greedy7 >= item7) Nil else Seq(s"Config 7: greedyWM welfare $greedy7 < item-disj $item7")) ++
        (if (allocs(s"${Experiments.AlgoBundleDisj}/c1") == allocs(s"${Experiments.AlgoGreedyWM}/c1") &&
            bits(ests(s"${Experiments.AlgoBundleDisj}/c1")) == bits(ests(s"${Experiments.AlgoGreedyWM}/c1"))) Nil
         else Seq("Config 1: bundle-disj differs from greedyWM"))
    OpOut(
      cells = cells.length,
      allocS = Some(cells.map(_._4).sum),
      welfareS = Some(cells.map(_._5).sum),
      output = cells.flatMap { case (_, alloc, e, _, _, _) =>
        Seq(alloc.toSeq.sorted.flatMap { case (v, m) => Seq(v.toLong, m.toLong) }, bits(e))
      }.toVector,
      welfare = cells.map { case (label, _, e, _, _, _) => label -> WelfareStat.of(e) },
      problems = cells.flatMap(_._6) ++ shape,
    )
  }

  /** The op repeats `Experiments.run`'s seeding; confirm it still does. */
  override def afterWarmup(): Seq[String] = {
    val run = Experiments.run(Experiments.AlgoGreedyWM, spark, g, c1, uniform2, McRuns, ctx.seeds.algo)
    val mine = ests(s"${Experiments.AlgoGreedyWM}/c1").welfare
    if (run.welfare == mine) Nil else Seq(s"Experiments.run welfare ${run.welfare} != op welfare $mine")
  }

  def probeInputs: ProbeInputs = ProbeInputs(
    configs(1)._3,
    Seq(
      ("c1", c1.model, allocs(s"${Experiments.AlgoGreedyWM}/c1")),
      ("c7", c7.model, allocs(s"${Experiments.AlgoGreedyWM}/c7")),
      ("c10", c10.model, prefixAlloc(greedyOrders("c7"), tenByHundred)),
    ),
  )
}
