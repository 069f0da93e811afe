from geoflow.stages import textstats


def test_textstats_vectorized_matches_python(ray_session):
    import pyarrow as pa
    texts = ["Hello world  42!", "", "a b\tc\nd", "12345", "   "]
    batch = pa.table({"doc_id": list(range(len(texts))), "text": texts})
    out = textstats.add_text_stats(batch)
    assert out.column("n_tokens").to_pylist() == [len(t.split()) for t in texts]
    assert out.column("text_len").to_pylist() == [len(t) for t in texts]
    assert out.column("n_alpha").to_pylist() == [
        sum(c.isascii() and c.isalpha() for c in t) for t in texts]


def test_langid_and_fingerprint(ray_session):
    import pyarrow as pa
    lid = textstats.LangId()
    assert lid.predict_one("the cat and the dog is in the house") == "en"
    assert lid.predict_one("der hund und die katze ist nicht da") == "de"
    assert lid.predict_one("это не просто текст на русском") == "ru"
    assert lid.predict_one("") == "und"
    batch = pa.table({"text": ["one two three four five six seven eight nine",
                               "one two three four five six seven eight nine",
                               "different words entirely here now"]})
    out = textstats.fingerprint_batch(batch)
    fp = out.column("fingerprint").to_pylist()
    assert fp[0] == fp[1] != fp[2]


def test_fingerprint_poly_properties():
    import pyarrow as pa
    texts = ["one two three four five six seven eight nine ten",
             "one two three four five six seven eight nine ten",
             "totally different words in here right now yes ok sure",
             "short doc", ""]
    batch = pa.table({"text": texts})
    out = textstats.fingerprint_poly_batch(batch)
    fp = out.column("fingerprint_poly").to_pylist()
    assert fp[0] == fp[1] != fp[2]     # identical docs share fingerprints
    assert fp[4] == 0                  # empty -> 0
    assert all(0 <= v < 2**31 for v in fp)
