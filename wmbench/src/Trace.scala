package wmbench

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}

/** One traced interval. Times are epoch milliseconds (fractional), so the
  * benchmark's own spans and the Spark listener's job events share a clock.
  * `parent` is -1 for a root span; spans of one op share `op`.
  */
final case class Span(id: Int, name: String, parent: Int, op: String, startMs: Double, endMs: Double) {
  def durS: Double = (endMs - startMs) / 1e3
}

/** In-memory span recorder. Disabled, `span` only runs its body, so an
  * untraced op pays nothing but a branch. Spans are written out when the
  * run ends, never during it.
  */
final class Tracer {
  private val baseMs = System.currentTimeMillis().toDouble
  private val baseNs = System.nanoTime()
  private val buf = ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  private var op = ""
  var enabled = false

  def nowMs: Double = baseMs + (System.nanoTime() - baseNs) / 1e6

  def spans: Seq[Span] = buf.toSeq

  /** Root span for op `opId`; every span opened inside it carries the id. */
  def root[A](opId: String, name: String)(body: => A): A = {
    op = opId
    span(name)(body)
  }

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = buf.length
      val parent = open.headOption.getOrElse(-1)
      buf += Span(id, name, parent, op, nowMs, Double.NaN)
      open = id :: open
      try body
      finally {
        open = open.tail
        buf(id) = buf(id).copy(endMs = nowMs)
      }
    }

  /** Attach Spark job intervals as children of root span `opSpan`. */
  def addJobs(opSpan: Span, jobs: Seq[(Double, Double)]): Unit =
    jobs.foreach { case (s, e) => buf += Span(buf.length, "spark.job", opSpan.id, opSpan.op, s, e) }
}

/** Totals the listener saw between two drains. */
final case class SparkCounts(
    jobs: Seq[(Double, Double)], // (start, end) epoch ms of each finished job
    tasks: Long,
    runS: Double,
    cpuS: Double,
    gcS: Double,
    deserS: Double,
    resultBytes: Long,
) {
  /** Wall time with at least one job in flight. */
  def jobWallS: Double = Intervals.unionS(jobs)
}

/** Counts Spark jobs and tasks for the benchmark. Events arrive on Spark's
  * listener thread, so `drain` first waits for the listener bus to empty;
  * otherwise the tail of one op's events would be billed to the next op.
  */
final class JobCounter(sc: SparkContext) extends SparkListener {
  private val started = scala.collection.mutable.Map.empty[Int, Long]
  private val jobs = ArrayBuffer.empty[(Double, Double)]
  private var tasks, runMs, cpuNs, gcMs, deserMs, resultBytes = 0L

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized { started(e.jobId) = e.time }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobs += ((started.remove(e.jobId).getOrElse(e.time).toDouble, e.time.toDouble))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    tasks += 1
    val m = e.taskMetrics
    if (m != null) {
      runMs += m.executorRunTime
      cpuNs += m.executorCpuTime
      gcMs += m.jvmGCTime
      deserMs += m.executorDeserializeTime
      resultBytes += m.resultSize
    }
  }

  /** Wait for every posted event, return the totals since the last drain
    * and reset them.
    */
  def drain(): SparkCounts = {
    org.apache.spark.WmbenchBridge.waitForListeners(sc)
    synchronized {
      val c = SparkCounts(jobs.toSeq, tasks, runMs / 1e3, cpuNs / 1e9, gcMs / 1e3, deserMs / 1e3, resultBytes)
      jobs.clear(); tasks = 0; runMs = 0; cpuNs = 0; gcMs = 0; deserMs = 0; resultBytes = 0
      c
    }
  }
}

object Intervals {
  /** Merge `(start, end)` millisecond intervals. */
  def merge(xs: Seq[(Double, Double)]): List[(Double, Double)] =
    xs.sortBy(_._1).foldLeft(List.empty[(Double, Double)]) {
      case ((s0, e0) :: rest, (s, e)) if s <= e0 => (s0, math.max(e0, e)) :: rest
      case (acc, iv) => iv :: acc
    }.reverse

  /** Seconds covered by the union of the intervals. */
  def unionS(xs: Seq[(Double, Double)]): Double = merge(xs).map { case (s, e) => e - s }.sum / 1e3

  /** Seconds of `(s, e)` covered by the union of `xs`. */
  def coveredS(s: Double, e: Double, xs: Seq[(Double, Double)]): Double =
    unionS(xs.flatMap { case (a, b) =>
      val lo = math.max(a, s); val hi = math.min(b, e)
      if (hi > lo) Some((lo, hi)) else None
    })
}
