-- SOBI ask-side leg: running notional and volume totals over ASKS (the
-- mirror of bench/queries/sobi_bids.sql).
create table ASKS(ID int, BROKER_ID int, PRICE int, VOLUME int);

select sum(PRICE * VOLUME), sum(VOLUME) from ASKS;
