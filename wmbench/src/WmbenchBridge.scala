package org.apache.spark

/** The one `private[spark]` member the benchmark needs: waiting until the
  * listener bus has delivered every posted event, so per-op Spark counts
  * are complete when they are read.
  */
object WmbenchBridge {
  def waitForListeners(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
