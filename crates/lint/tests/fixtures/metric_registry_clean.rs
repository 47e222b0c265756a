metric_table! {
    IngestItemsTotal => Counter "sss_ingest_items_total": "Items folded into estimator state";
    IngestQueueDepth => Gauge "sss_ingest_queue_depth": "Jobs dispatched but not yet completed";
    CodecEncodeNanos => Histogram "sss_codec_encode_nanos": "Checkpoint encode wall time";
}
