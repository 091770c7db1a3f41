package wmbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import scala.collection.immutable.ListMap
import scala.util.control.NonFatal

import org.apache.spark.sql.SparkSession

import repro.graph.SocialGraph

import Workloads.timed

/** The benchmark's JVM side: one closed-loop client, one op in flight.
  *
  * Usage (normally through `run.py`, which builds and launches it):
  * {{{
  * wmbench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *              --out <dir> [--git-sha <sha>] [--source-sha <sha>]
  * }}}
  * It prints a `wmbench record` line with the machine, the run and every
  * metric, then a `wmbench result` line for the launcher. With `--trace 1`
  * ops alternate traced and untraced, the layer probes run after the timed
  * loop, and the spans go to `<out>/trace-<workload>-seed<n>.json`.
  */
object Main {

  /** Graph builds in set-up; `setup_s` counts their median. */
  val GraphBuilds = 3
  /** Ops run before timing starts (JIT, Spark code paths). */
  val WarmupOps = 1
  /** Fewest timed ops per run (in a traced run, one traced and one not). */
  val MinOps = 2
  /** The tail percentile needs this many samples beyond it. */
  val TailBeyond = 10

  final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        out: String, gitSha: String, sourceSha: String)

  private def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String): String = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Opts(need("workload"), need("seed").toLong, need("seconds").toDouble, need("trace") == "1",
      need("out"), kv.getOrElse("git-sha", "unknown"), kv.getOrElse("source-sha", "unknown"))
  }

  final case class OpRun(id: String, traced: Boolean, seconds: Double, out: Option[OpOut],
                         error: Option[String], counts: Option[SparkCounts], span: Option[Span])

  def main(args: Array[String]): Unit = {
    val opts = parse(args)
    val wdef = Workloads.byName(opts.workload).getOrElse {
      System.err.println(s"unknown workload ${opts.workload}; known: ${Workloads.all.map(_.name).mkString(", ")}")
      sys.exit(2)
    }
    val jvmStartMs = ManagementFactory.getRuntimeMXBean.getStartTime
    val cpus = Runtime.getRuntime.availableProcessors()
    val spark = SparkSession.builder()
      .master(s"local[$cpus]")
      .appName(s"wmbench-${opts.workload}")
      .config("spark.ui.enabled", "false")
      .config("spark.ui.showConsoleProgress", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.sql.warehouse.dir", Paths.get(opts.out, "spark-warehouse").toAbsolutePath.toString)
      .getOrCreate()
    try run(opts, wdef, spark, jvmStartMs, cpus)
    finally spark.stop()
  }

  private def run(opts: Opts, wdef: Workloads.Def, spark: SparkSession, jvmStartMs: Long, cpus: Int): Unit = {
    val sparkStartS = (System.currentTimeMillis() - jvmStartMs) / 1e3
    val tracer = new Tracer
    val seeds = Seeds(opts.seed)
    var setupProblems = Vector.empty[String]

    // Set-up, part 1: the graph, built GraphBuilds times; set-up counts the
    // median build, and every rebuild must equal the first.
    val (g, firstBuildS) = timed(wdef.graph(opts.seed))
    val rebuilds = (2 to GraphBuilds).map { _ =>
      val (again, s) = timed(wdef.graph(opts.seed))
      if (!sameGraph(g, again)) setupProblems :+= "graph generation is not deterministic"
      s
    }
    val buildTimes = firstBuildS +: rebuilds
    val buildS = Probes.median(buildTimes)
    val ctx = Ctx(spark, g, seeds, tracer)

    // Part 2: the workload's fixed inputs, then warm-up ops.
    val (w, prepareS) = timed(wdef.make(ctx))
    val counter = new JobCounter(spark.sparkContext)
    def runOp(id: String, traced: Boolean): OpRun = {
      if (traced) {
        // Events still queued from an untraced op must not reach the counter.
        org.apache.spark.WmbenchBridge.waitForListeners(spark.sparkContext)
        spark.sparkContext.addSparkListener(counter)
      }
      tracer.enabled = traced
      val t0 = System.nanoTime()
      val res =
        try Right(tracer.root(id, "op")(w.op()))
        catch { case NonFatal(e) => Left(s"$e") }
      val s = (System.nanoTime() - t0) / 1e9
      tracer.enabled = false
      val counts = if (traced) {
        val c = counter.drain()
        spark.sparkContext.removeSparkListener(counter)
        Some(c)
      } else None
      val root = if (traced) tracer.spans.reverseIterator.find(sp => sp.op == id && sp.parent < 0) else None
      for (sp <- root; c <- counts) tracer.addJobs(sp, c.jobs)
      OpRun(id, traced, s, res.toOption, res.left.toOption, counts, root)
    }
    val (warmups, warmupS) = timed((1 to WarmupOps).map(i => runOp(s"warmup-$i", traced = false)))
    val (afterProblems, afterS) = timed(w.afterWarmup())
    setupProblems ++= afterProblems
    val firstOut = warmups.head.out
    setupProblems ++= warmups.flatMap(r => r.error.toSeq ++ r.out.toSeq.flatMap(_.problems))
    val setupS = sparkStartS + buildS + prepareS + warmupS + afterS

    // Timed closed loop: the next op starts when the previous one ends.
    val loopStart = System.nanoTime()
    def elapsed: Double = (System.nanoTime() - loopStart) / 1e9
    val ops = Vector.newBuilder[OpRun]
    var i = 0
    while (i < MinOps || elapsed < opts.seconds) {
      ops += runOp(s"op-$i", traced = opts.trace && i % 2 == 0)
      i += 1
    }
    val loopS = elapsed
    val all = ops.result()

    def opProblems(r: OpRun): Seq[String] =
      r.error.toSeq ++ r.out.toSeq.flatMap { o =>
        o.problems ++ (if (firstOut.exists(_.output == o.output)) Nil
                       else Seq(s"${r.id}: output differs from the first op's"))
      }
    val failures = all.map(r => r -> opProblems(r)).filter(_._2.nonEmpty)
    val good = all.filterNot(r => failures.exists(_._1 eq r))

    // Spark removes destroyed broadcasts and cleans up after collected
    // objects asynchronously; give each GC's cleanup time before the next.
    for (_ <- 1 to 3) { System.gc(); Thread.sleep(200) }
    System.gc()
    val heapLiveMb = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0

    // A failed op still took its time; `failed` and `correct` report it.
    val timedOps = all.filterNot(_.traced)
    val opTimes = timedOps.map(_.seconds)
    val tail = tailOf(opTimes)
    def p50Of(f: OpOut => Option[Double]): Option[Double] = {
      val xs = timedOps.flatMap(r => r.out.flatMap(f))
      if (xs.isEmpty) None else Some(Probes.median(xs))
    }
    val cellsPerS = good.flatMap(_.out).map(_.cells).sum / loopS
    val endToEnd = ListMap[String, Any](
      "setup_s" -> Metric(setupS, "s"),
      "op_s_p50" -> Metric(Probes.median(opTimes), "s"),
      "op_s_tail" -> tail.fold[Any](s"n/a (${opTimes.length} ops; needs more than $TailBeyond)") {
        case (v, pct) => ListMap("value" -> v, "unit" -> "s", "percentile" -> pct, "samples" -> opTimes.length)
      },
      "cells_per_s" -> Metric(cellsPerS, "1/s"),
      "alloc_s_p50" -> p50Of(_.allocS).fold[Any]("n/a (no allocation in an op)")(Metric(_, "s")),
      "welfare_s_p50" -> p50Of(_.welfareS).fold[Any]("n/a (no welfare estimate in an op)")(Metric(_, "s")),
      "failed_frac" -> Metric(failures.length.toDouble / math.max(1, all.length), "ratio"),
      "heap_live_mb" -> Metric(heapLiveMb, "MiB"),
    )

    val layers: ListMap[String, Any] =
      if (!opts.trace) ListMap.empty
      else perLayer(ctx, w, good, buildS) match {
        case (m, info, problems) =>
          setupProblems ++= problems
          writeTrace(opts, tracer, m, info)
          m ++ info
      }

    val problems = setupProblems ++ failures.flatMap(_._2)
    val welfare = ListMap(firstOut.toSeq.flatMap(_.welfare).map { case (label, st) =>
      label -> ListMap("mean" -> st.mean, "se" -> st.se, "runs" -> st.runs)
    }: _*)
    val record = ListMap(
      "workload" -> opts.workload,
      "machine" -> ListMap(
        "nproc" -> cpus,
        "mem_total_mb" -> memTotalMb,
        "heap_max_mb" -> Runtime.getRuntime.maxMemory / 1048576,
        "java" -> s"${sys.props("java.vm.name")} ${sys.props("java.version")}",
        "spark" -> org.apache.spark.SPARK_VERSION,
        "scala" -> scala.util.Properties.versionNumberString,
        "spark_master" -> spark.sparkContext.master,
      ),
      "run" -> ListMap(
        "git_sha" -> opts.gitSha,
        "source_sha256" -> opts.sourceSha,
        "workload_seed" -> opts.seed,
        "graph_seed" -> s"${g.name} stand-in, GraphGen seed = default + ${opts.seed}",
        "algo_seed" -> seeds.algo,
        "welfare_seed" -> seeds.welfare,
        "graph" -> ListMap("n" -> g.n, "m" -> g.m),
        "seconds" -> opts.seconds,
        "loop_s" -> loopS,
        "traced" -> opts.trace,
        "warmup_ops" -> WarmupOps,
        "graph_builds" -> GraphBuilds,
        "ops_per_run" -> all.length,
        "timed_ops" -> opTimes.length,
        "traced_ops" -> all.count(_.traced),
        "tail_percentile" -> tail.fold[Any](s"none: needs more than $TailBeyond ops")(_._2),
        "setup_parts_s" -> ListMap(
          "jvm_to_spark" -> sparkStartS, "graph_build_median" -> buildS,
          "graph_builds" -> buildTimes, "prepare" -> prepareS,
          "warmup" -> warmupS, "after_warmup_check" -> afterS),
        "op_s" -> all.map(r => ListMap("id" -> r.id, "s" -> r.seconds, "traced" -> r.traced)),
      ),
      "end_to_end" -> endToEnd,
      "welfare" -> welfare,
      "per_layer" -> layers,
      "problems" -> problems,
    )
    println("wmbench record " + Json.render(record))

    val result = ListMap(
      "correct" -> problems.isEmpty,
      "attempted" -> all.length,
      "failed" -> failures.length,
      "metrics" -> (endToEnd ++ layers).collect { case (k, m: Metric) => k -> m },
      "welfare" -> welfare,
    )
    println("wmbench result " + Json.render(result))
  }

  /** Highest percentile with at least `TailBeyond` samples beyond it. */
  private def tailOf(xs: Seq[Double]): Option[(Double, Double)] = {
    val n = xs.length
    if (n <= TailBeyond) None
    else {
      val s = xs.sorted
      val idx = n - TailBeyond - 1
      Some((s(idx), 100.0 * (idx + 1) / n))
    }
  }

  private def sameGraph(a: SocialGraph, b: SocialGraph): Boolean =
    a.n == b.n && java.util.Arrays.equals(a.fwdOff, b.fwdOff) && java.util.Arrays.equals(a.fwdDst, b.fwdDst) &&
      java.util.Arrays.equals(a.fwdProb, b.fwdProb)

  private def memTotalMb: Long =
    ManagementFactory.getOperatingSystemMXBean match {
      case os: com.sun.management.OperatingSystemMXBean => os.getTotalMemorySize / 1048576
      case _ => -1L
    }

  /** Per-layer metrics from the traced ops and the probes. */
  private def perLayer(ctx: Ctx, w: Workload, good: Seq[OpRun],
                       buildS: Double): (ListMap[String, Any], ListMap[String, Any], Seq[String]) = {
    val g = ctx.g
    val traced = good.filter(_.traced)
    val untraced = good.filterNot(_.traced)
    val nT = math.max(1, traced.length).toDouble
    val counts = traced.flatMap(_.counts)
    def perOp(f: SparkCounts => Double): Double = counts.map(f).sum / nT
    val jobS = perOp(_.jobWallS)
    val opS = traced.map(_.seconds).sum / nT
    val csrBytes = 2L * (g.n + 1) * 4 + 2L * g.m * (4 + 8)

    val spans = ctx.tracer.spans
    def spanMedian(name: String): Option[Double] = {
      val xs = spans.filter(s => s.name == name && !s.op.startsWith("probe")).map(_.durS)
      if (xs.isEmpty) None else Some(Probes.median(xs))
    }
    val greedyS = spanMedian("core.GreedyWM.allocate").getOrElse(Probes.median(w.setupAllocS))
    val baselines = Seq("core.Baselines.itemDisj", "core.Baselines.bundleDisj")
      .flatMap(n => spanMedian(n).map(v => s"${n}_s" -> Metric(v, "s")))

    val inputs = w.probeInputs
    ctx.tracer.enabled = true
    val probes = Seq(Probes.im(ctx, inputs.imBudgets), Probes.epic(ctx, inputs.epic), Probes.items(ctx))
    ctx.tracer.enabled = false

    val untracedP50 = Probes.median(untraced.map(_.seconds))
    val tracedP50 = Probes.median(traced.map(_.seconds))
    val m = ListMap[String, Any](
      "graph.build_s" -> Metric(buildS, "s"),
      "graph.csr_mb" -> Metric(csrBytes / 1048576.0, "MiB"),
      "spark.jobs_per_op" -> Metric(perOp(_.jobs.length), "count"),
      "spark.tasks_per_op" -> Metric(perOp(_.tasks.toDouble), "count"),
      "spark.job_s_per_op" -> Metric(jobS, "s"),
      "spark.driver_s_per_op" -> Metric(opS - jobS, "s"),
      "spark.task_run_s_per_op" -> Metric(perOp(_.runS), "s"),
      "spark.task_cpu_s_per_op" -> Metric(perOp(_.cpuS), "s"),
      "spark.task_gc_s_per_op" -> Metric(perOp(_.gcS), "s"),
      "spark.task_deser_s_per_op" -> Metric(perOp(_.deserS), "s"),
      "spark.result_mb_per_op" -> Metric(perOp(_.resultBytes / 1048576.0), "MiB"),
      "core.GreedyWM.allocate_s" -> Metric(greedyS, "s"),
    ) ++ baselines ++ probes.flatMap(_.metrics) ++ ListMap(
      "trace.op_s_p50" -> Metric(tracedP50, "s"),
      "trace.untraced_op_s_p50" -> Metric(untracedP50, "s"),
      "trace.overhead_s" -> Metric(tracedP50 - untracedP50, "s"),
    )
    val info = ListMap[String, Any](
      "self_s_per_op" -> selfTimes(spans, traced),
      "core.GreedyWM.allocate_s.source" -> (if (spanMedian("core.GreedyWM.allocate").isDefined) "op spans" else "set-up allocations"),
    ) ++ probes.flatMap(_.info)
    (m, info, probes.flatMap(_.problems))
  }

  /** Self time per layer, per traced op: a span's duration minus the part
    * its children cover. `spark.job` spans are children of the op span, so
    * for `core` and `epic` the Spark-job part is subtracted explicitly:
    * what remains is their driver-side time.
    */
  private def selfTimes(spans: Seq[Span], traced: Seq[OpRun]): ListMap[String, Double] = {
    val n = math.max(1, traced.length).toDouble
    var acc = ListMap("bench" -> 0.0, "core" -> 0.0, "epic" -> 0.0, "spark" -> 0.0)
    def add(k: String, v: Double): Unit = acc = acc.updated(k, acc(k) + v)
    for (r <- traced; root <- r.span) {
      val children = spans.filter(_.parent == root.id)
      val jobs = children.filter(_.name == "spark.job").map(s => (s.startMs, s.endMs))
      add("spark", Intervals.unionS(jobs))
      add("bench", root.durS - Intervals.coveredS(root.startMs, root.endMs, children.map(s => (s.startMs, s.endMs))))
      for (c <- children if c.name != "spark.job") {
        val layer = c.name.takeWhile(_ != '.')
        if (acc.contains(layer)) add(layer, c.durS - Intervals.coveredS(c.startMs, c.endMs, jobs))
      }
    }
    acc.map { case (k, v) => k -> v / n }
  }

  private def writeTrace(opts: Opts, tracer: Tracer, layers: ListMap[String, Any], info: ListMap[String, Any]): Unit = {
    val doc = ListMap(
      "workload" -> opts.workload,
      "seed" -> opts.seed,
      "per_layer" -> layers,
      "info" -> info,
      "spans" -> tracer.spans.map(s => ListMap(
        "id" -> s.id, "name" -> s.name, "parent" -> s.parent, "op" -> s.op,
        "start_ms" -> s.startMs, "end_ms" -> s.endMs)),
    )
    val path = Paths.get(opts.out, s"trace-${opts.workload}-seed${opts.seed}.json")
    Files.createDirectories(path.getParent)
    Files.write(path, Json.render(doc).getBytes(StandardCharsets.UTF_8))
  }
}

/** Minimal JSON writer for the benchmark's records. */
object Json {
  def render(x: Any): String = x match {
    case null | None => "null"
    case Metric(v, unit) => render(ListMap("value" -> v, "unit" -> unit))
    case Some(v) => render(v)
    case s: String => quote(s)
    case b: Boolean => b.toString
    case d: Double => if (d.isNaN || d.isInfinite) "null" else d.toString
    case f: Float => render(f.toDouble)
    case n: Int => n.toString
    case n: Long => n.toString
    case m: collection.Map[_, _] => m.map { case (k, v) => quote(k.toString) + ":" + render(v) }.mkString("{", ",", "}")
    case xs: Iterable[_] => xs.map(render).mkString("[", ",", "]")
    case other => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"' => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    b += '"'
    b.result()
  }
}
