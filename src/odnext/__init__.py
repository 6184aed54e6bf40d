"""Origin-aware next-destination recommendation.

Spatio-temporal LSTM encoders over per-user trip histories combined
with a per-dimension attention decoder, trained from scratch on numpy.
"""
